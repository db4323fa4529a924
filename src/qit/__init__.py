"""Toolkit for a deformed (q-indexed) entropy family on finite distributions.

Scalar deformed log/exp live in ``qit.qcore``; probability containers in
``qit.prob``; entropies, divergences, and information measures in
``qit.measures``; the law registry and fuzz campaigns in ``qit.laws``;
Markov-chain rates and the stepwise second law in ``qit.markov``;
mean-constrained entropy maximization in ``qit.maxent``; and the
trajectory surprisal probe in ``qit.smb``.  ``qit.cli`` provides the
``qit`` command.
"""

from . import laws, markov, maxent, measures, prob, qcore, smb
from .errors import (
    ConvergenceError,
    ImpossibleTrajectoryError,
    QDomainError,
)
from .laws import LawId, SlackReport, all_laws, fuzz, identity_residual, law_slack
from .markov import (
    MarkovChain,
    SecondLawRow,
    entropy_rate_approximants,
    is_doubly_stochastic,
    random_doubly_stochastic,
    second_law_report,
    stationary,
)
from .maxent import MaxEntProblem, MaxEntSolution, OptimalityCheck
from .measures import (
    conditional_mutual_q_information,
    mutual_q_information,
    q_entropy,
    q_entropy_chain_terms,
    q_entropy_conditional,
    q_entropy_joint,
    q_entropy_max,
    relative_q_entropy,
    relative_q_entropy_conditional,
    tsallis_entropy,
)
from .prob import JointTable, ProbVec, make_rng, product_dist, random_dist, random_joint
from .qcore import SHANNON_TOL, QParam, exp_q, ln_q, pseudo_additivity_residual, q_value
from .smb import (
    SmbCurve,
    SmbPoint,
    Trajectory,
    block_log_prob_q,
    h_q_inf,
    h_q_k,
    markov_k_block_log_prob_q,
    sample_trajectory,
    smb_probe,
    t3_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SHANNON_TOL",
    "QParam",
    "q_value",
    "ln_q",
    "exp_q",
    "pseudo_additivity_residual",
    "QDomainError",
    "ConvergenceError",
    "ImpossibleTrajectoryError",
    "ProbVec",
    "JointTable",
    "make_rng",
    "product_dist",
    "random_dist",
    "random_joint",
    "tsallis_entropy",
    "q_entropy",
    "q_entropy_joint",
    "q_entropy_conditional",
    "q_entropy_max",
    "q_entropy_chain_terms",
    "relative_q_entropy",
    "relative_q_entropy_conditional",
    "mutual_q_information",
    "conditional_mutual_q_information",
    "LawId",
    "SlackReport",
    "all_laws",
    "fuzz",
    "law_slack",
    "identity_residual",
    "MarkovChain",
    "SecondLawRow",
    "stationary",
    "is_doubly_stochastic",
    "random_doubly_stochastic",
    "entropy_rate_approximants",
    "second_law_report",
    "MaxEntProblem",
    "MaxEntSolution",
    "OptimalityCheck",
    "Trajectory",
    "sample_trajectory",
    "block_log_prob_q",
    "markov_k_block_log_prob_q",
    "t3_residual",
    "h_q_k",
    "h_q_inf",
    "SmbPoint",
    "SmbCurve",
    "smb_probe",
    "laws",
    "markov",
    "maxent",
    "measures",
    "prob",
    "qcore",
    "smb",
]
