"""detlab: exact counting of determinant spectra, additive energies, and
point-hyperplane incidences over arbitrary finite scalar sets, with paired
brute-force oracles for every optimized engine."""

from .errors import BudgetExceededError, DEFAULT_BUDGET, PreconditionError
from .scalars import (
    FieldSpec,
    GroundSet,
    Mod,
    format_scalar,
    make_ground_set,
    parse_scalar,
    read_ground_set_file,
    scale_set,
)
from .matrices import Matrix, adjugate, assemble_bordered, det, det_cofactor, rank, schur_value
from .families import FamilySpec, generate
from .detcount import (
    MinorMultiplicityMap,
    SpectrumHistogram,
    count_det_brute,
    count_det_rowblock,
    count_rank,
    det_spectrum,
    dsup,
    minor_multiplicity_map,
)
from .energy import (
    DyadicPyramid,
    ValueDistribution,
    count_bilinear,
    count_bilinear_brute,
    dyadic_pyramid,
    energy_Estar_brute,
    energy_Estar_mu,
    energy_N,
    energy_N_brute,
    energy_S,
    energy_S_brute,
    energy_T,
    energy_T_brute,
    product_distribution,
    r_distribution,
)
from .incidence import (
    CellDecomposition,
    HyperplaneFamily,
    MinorPlanes,
    PointGrid,
    cell_decompose,
    cells_hit,
    choose_r,
    classify_incidences,
    cube_grid,
    curve_incidences_n3,
    incidences_brute,
    nondegeneracy_ratio,
    planes_from_minors,
)
from .harness import (
    ExponentFit,
    ResultCache,
    ScanRow,
    fit_exponent,
    read_jsonl,
    run_scan,
    scan_key,
    write_csv,
    write_jsonl,
)

__version__ = "0.1.0"
