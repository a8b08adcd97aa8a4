"""permscan: pattern avoiders, pattern-occurrence counting, and OEIS
conjecture mining over bit-packed permutations."""

from .permcore import (
    NIBBLE,
    WIDE,
    PackedPerm,
    PartialInverse,
    UpfixBitmap,
    PermCapacityError,
    PermLayout,
    complement_perm,
    delete_down,
    delete_down_next,
    format_perm,
    insert_up,
    inverse_perm,
    kill_pos,
    parse_perm,
    reverse_perm,
    standardize,
    upfix,
    upfix_standardize_scan,
    update_inverse,
)
from .avoiders import (
    AvoiderLevel,
    AvoiderRecord,
    ExtensionMap,
    PatternSet,
    avoider_rows,
    build_avoiders_basic,
    collect_avoider_levels,
    count_avoiders_fast,
    count_avoiders_lowmem,
    detect_avoider,
    enumerate_avoiders_fast,
    extension_map,
    ignoring_extension_map,
)
from .counting import (
    BoundedHits,
    ClosureViolationError,
    CountTally,
    HitProfile,
    build_bounded_hits,
    count_all,
    count_all_lowmem,
    count_downset,
    count_profile,
    count_single_fast,
)
from .oracle import (
    SubseqCounter,
    SubseqCursor,
    hit_census,
    oracle_avoider_levels,
    oracle_contains,
    oracle_count_covincular,
    oracle_count_hits,
    oracle_hit_histogram,
)
from .vincular import (
    CovincularPattern,
    UnsupportedConstructionError,
    VincularPattern,
    build_covincular_avoiders,
    covincular_count_all,
    covincular_count_downset,
    covincular_count_set,
    covincular_profile,
    parse_vincular,
)
from .sequences import (
    MineRow,
    OeisDb,
    OeisEntry,
    OeisFormatError,
    SequenceRecord,
    SymmetryClass,
    avoidance_record,
    canonicalize,
    count_symmetry_classes,
    enumerate_symmetry_classes,
    growth_degree,
    mine,
    oeis_match,
    symmetry_group,
    write_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
