"""Average treatment effect estimation with machine-learned nuisance models.

The package is organised bottom-up: ``core`` (data model, folds, losses),
``learners`` (from-scratch supervised fits), ``superlearner`` (stacking),
``balance`` (propensity scores and diagnostics), ``estimators`` (effect
estimators and inference), ``selection`` (confounder selection), ``dgp``
(synthetic ground-truth generators), and ``cli`` (the command-line front
end).
"""

from .core import (
    Dataset,
    FoldAssignment,
    FittedModel,
    LearnerSpec,
    OutcomeKind,
    loss_logloss,
    loss_mse,
    make_folds,
    make_stratified_folds,
)
from .balance import (
    BalanceBoostedPS,
    BalanceReport,
    asam,
    balance_table,
    iptw_weights,
    match_weights,
    ps_match,
    smd,
)
from .estimators import (
    AteResult,
    NuisanceFits,
    aiptw_ate,
    bootstrap_ci,
    dml_ate,
    fit_nuisances,
    if_se,
    iptw_ate,
    match_ate,
    naive_ate,
    reg_ate,
    tmle_ate,
)
from .dgp import DgpSpec, McReport, builtin_specs, gen_dataset, mc_eval
from .selection import (
    CtmleTrace,
    SelectionResult,
    ctmle_greedy,
    ctmle_lasso,
    ctmle_preorder_correlation,
    ctmle_preorder_logistic,
    double_lasso_select,
)
from .superlearner import (
    SLLibrary,
    SLModel,
    fit_super_learner,
    level_one,
    meta_weights,
)

__version__ = "0.1.0"
