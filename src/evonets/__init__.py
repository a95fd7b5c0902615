"""Self-organizing constructive classifiers.

Four model families that grow their own structure during learning and stay
small enough to read: cascade networks that add inputs and neurons while
held-out error drops, polynomial networks grown by the group method of data
handling, pairwise linear machines with winner-take-all combination, and
single-feature threshold rule trees distilled from any of the above.
"""

from .baseline import FnnConfig, FnnModel, train_fnn
from .cascade import (CascadeNetwork, cascade_to_dot, describe_cascade,
                      rank_single_features, relevance_check, train_ecnn)
from .dataset import (Dataset, NormParams, SplitSpec, gen_blobs,
                      gen_surrogate_eeg, gen_xor, load_csv, normalize_zscore,
                      save_csv, split)
from .errors import DataError, TrainingError, UsageError
from .gmdh import (GmdhConfig, PolyNetwork, SupportingNeuron, count_candidates,
                   gmdh_to_dot, to_polynomial_text, train_gmdh_layered,
                   train_gmdh_roulette)
from .linear import (LinearMachine, LinearTest, LmdtConfig, PairwiseTree,
                     PocketState, aggregate_segments, combine_pairwise,
                     error_correct, induce_dt, sfs_select, thermal_c,
                     thermal_correction, train_pairwise_tree, train_pocket_ratchet)
from .modelio import ModelBundle, load_model, save_model
from .neuron import (CandidateScore, FitConfig, SigmoidNeuron, exterior_criterion,
                     fit_gradient, fit_loss, fit_neuron, least_squares_fit, sigmoid)
from .ruletree import (RuleNode, RuleTree, classify_rule, extract_rules,
                       ruletree_to_dot, search_threshold, to_text)

__version__ = "0.1.0"
