"""From-scratch ML substrate: GPs, designs, linear models, clustering.

Everything the surveyed tuners need — Gaussian processes with EI/PI/UCB
acquisitions (iTuned, OtterTune), Latin hypercube and Plackett–Burman
designs (iTuned, SARD), lasso paths (OtterTune knob ranking), k-means
and factor analysis (OtterTune metric pruning), an MLP (Rodd), and tree
ensembles — implemented on numpy/scipy only.
"""

from repro.mlkit.acquisition import (
    expected_improvement,
    lower_confidence_bound,
    maximize_acquisition,
    probability_of_improvement,
)
from repro.mlkit.cluster import KMeans, select_k_by_silhouette
from repro.mlkit.doe import (
    foldover,
    full_factorial_two_level,
    main_effects,
    plackett_burman,
)
from repro.mlkit.factor import PCA, FactorAnalysis
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.kernels import RBF, ConstantTimes, Kernel, Matern52, Sum
from repro.mlkit.linear import Lasso, RidgeRegression, lasso_path, lasso_rank_features
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.sampling import halton, latin_hypercube, maximin_latin_hypercube, uniform
from repro.mlkit.scaler import MinMaxScaler, StandardScaler
from repro.mlkit.state import dump_model, load_model
from repro.mlkit.tree import RandomForest, RegressionTree

__all__ = [
    "ConstantTimes",
    "FactorAnalysis",
    "GaussianProcess",
    "KMeans",
    "Kernel",
    "Lasso",
    "MLPRegressor",
    "Matern52",
    "MinMaxScaler",
    "PCA",
    "RBF",
    "RandomForest",
    "RegressionTree",
    "RidgeRegression",
    "StandardScaler",
    "Sum",
    "dump_model",
    "expected_improvement",
    "foldover",
    "full_factorial_two_level",
    "halton",
    "lasso_path",
    "lasso_rank_features",
    "latin_hypercube",
    "load_model",
    "lower_confidence_bound",
    "main_effects",
    "maximin_latin_hypercube",
    "maximize_acquisition",
    "plackett_burman",
    "probability_of_improvement",
    "select_k_by_silhouette",
    "uniform",
]
