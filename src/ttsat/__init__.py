"""Course timetabling compiled to weighted partial Max-SAT, solved exactly."""

__version__ = "0.1.0"

from .cardinality import exactly_one, totalizer  # noqa: F401
from .cnf import (  # noqa: F401
    Clause,
    Model,
    WcnfFormula,
    parse_dimacs,
    parse_solver_output,
    write_dimacs,
)
from .decode import (  # noqa: F401
    Timetable,
    ViolationReport,
    check_hard,
    compute_cost,
    decode_timetable,
    parse_timetable_csv,
    render_timetable,
)
from .encoder import (  # noqa: F401
    EncodeOptions,
    VarMap,
    encode,
    encode_with_families,
)
from .model import (  # noqa: F401
    Instance,
    gen_random_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .solver import (  # noqa: F401
    CdclSolver,
    MaxSatResult,
    MaxSatStatus,
    SatResult,
    SatStatus,
    SolverConfig,
    brute_force_maxsat,
    solve_external,
    solve_maxsat,
    solve_sat,
)
from .sample import load_sample  # noqa: F401
