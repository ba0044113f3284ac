"""Multinomial-logit toolkit for evacuation exit choice.

Submodules
----------
core
    Domain types, the utility/probability math and the grouped choice-set
    kernel that estimation and design share.
estimation
    Maximum-likelihood fitting with analytic derivatives and inference
    statistics.
design
    Factorial scenario enumeration, Fisher information, D-error and the
    efficient-design search.
simulation
    Monte-Carlo choice generation and two-exit sensitivity curves.
reference
    Bundled levels, scenario battery and fitted coefficient sets from the
    source VR experiment.
io / cli
    File formats and the ``exitchoice`` command-line tool.
"""

from .core import (ATTRIBUTES, ChoiceObservation, ExitAttributes, ModelSpec,
                   Scenario, as_params, choice_probabilities, softmax,
                   systematic_utility, utilities)
from .design import (EfficientDesign, FactorLevels, d_error,
                     fisher_information, full_factorial, search_design)
from .estimation import (InferenceRow, ModelFit, NotIdentifiedError,
                         SeparationWarning, fit_mnl, gradient, hessian,
                         inference_table, log_likelihood, two_sided_p)
from .simulation import (SensitivityConfig, effective_coefficients,
                         generate_dataset, sensitivity_curve)

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTES", "ChoiceObservation", "EfficientDesign", "ExitAttributes",
    "FactorLevels", "InferenceRow", "ModelFit", "ModelSpec",
    "NotIdentifiedError", "Scenario", "SensitivityConfig",
    "SeparationWarning", "as_params", "choice_probabilities", "d_error",
    "effective_coefficients", "fisher_information", "fit_mnl",
    "full_factorial", "generate_dataset", "gradient", "hessian",
    "inference_table", "log_likelihood", "search_design",
    "sensitivity_curve", "softmax",
    "systematic_utility", "two_sided_p", "utilities",
]
