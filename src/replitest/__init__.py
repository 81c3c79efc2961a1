"""Replicable distribution testers and a random-walk lower-bound lab."""

from .closeness import (
    ClosenessConfig,
    closeness_sample_size,
    closeness_statistic,
    draw_closeness_counts,
    rep_closeness_test,
    soundness_floor,
)
from .flattening import non_singleton_count
from .hard_instances import (
    ClosenessHardParams,
    UniformityHardParams,
    draw_closeness_hard,
    draw_meta_closeness,
    draw_meta_uniformity,
    draw_uniformity_hard,
)
from .independence import (
    IndependenceConfig,
    averaged_stats,
    closeness_stat_marked,
    independence_gap,
    independence_sample_size,
    product_of_marginals_sampler,
    rep_independence_test,
    sampled_averaged_stats,
    stage1_scale,
)
from .measures import (
    NonNegativeMeasure,
    diagonal_measure,
    half_flat_measure,
    measure_1d,
    measure_2d,
    uniform_measure,
    uniform_product_measure,
    zipf_measure,
)
from .rng import RngStream
from .sampling import (
    counts_from_indices,
    measure_sampler,
    multinomial_split,
    sample_counts_poissonized,
)
from .uniformity import (
    UniformityConfig,
    UniformityTester,
    rep_uniformity_test,
    uniformity_sample_size,
    uniformity_statistic,
)
from .verdict import CalibrationError, TesterVerdict
from .walks import (
    ClosenessPairKernel,
    CoordKernel,
    MixingReport,
    NotMixedError,
    TruncationError,
    estimate_mixing,
    product_walk_tau,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
