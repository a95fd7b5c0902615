"""The public API: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import evonets

MODULES = sorted(m.name for m in pkgutil.iter_modules(evonets.__path__))

# names deleted from the library, by the module that defined them
REMOVED = {
    "baseline": ["TrainingCurve", "PcaTransform", "pca_fit", "predict_fnn", "fnn_loss"],
    "neuron": ["classification_error", "sigmoid_out", "CandidateScore", "SCORE_KINDS",
               "descend", "replace_weights", "fit_neurons", "fit_data"],
    "dataset": ["xor_label"],
    "cascade": ["predict_cascade", "rank_single_features", "relevance_check"],
    "gmdh": ["predict_poly", "eval_supporting_neuron"],
    "linear": ["ThermalSchedule", "wta_classify", "error_correct", "thermal_c"],
    "ruletree": ["classify_rule"],
}

# methods deleted from the library's classes: (class, method)
REMOVED_METHODS = [(evonets.LinearTest, "raw")]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"evonets.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module,name", [(m, n) for m, names in REMOVED.items()
                                         for n in names])
def test_removed_name_is_not_importable(module, name):
    assert not hasattr(importlib.import_module(f"evonets.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from evonets import {name}", {})


# every `module.name` in README.md whose module is an evonets module
README_NAMES = sorted({ref for ref in re.findall(
    r"`(\w+\.[\w.]+)`", (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"))
    if ref.split(".")[0] in MODULES})


@pytest.mark.parametrize("ref", README_NAMES)
def test_readme_names_resolve(ref):
    module, *path = ref.split(".")
    owner = importlib.import_module(f"evonets.{module}")
    for name in path:
        assert hasattr(owner, name), f"README.md names {ref}, which does not exist"
        owner = getattr(owner, name)


def test_readme_names_are_found():
    assert len(README_NAMES) >= 10 and "neuron.fit_neuron" in README_NAMES


@pytest.mark.parametrize("cls,name", REMOVED_METHODS)
def test_removed_method_is_gone(cls, name):
    assert not hasattr(cls, name)


def test_load_csv_takes_only_path_and_label_column():
    # the stored-label-order parameter is gone; the evaluation reader applies a
    # model's label mapping
    assert list(inspect.signature(evonets.load_csv).parameters) == ["path", "label_column"]


def test_pocket_thermal_constants_are_not_settable():
    # the thermal schedule is four module constants; neither the pocket trainer
    # nor the linear-machine config takes a schedule
    assert list(inspect.signature(evonets.train_pocket_ratchet).parameters) == [
        "lm", "train", "epochs", "c", "seed", "use_ratchet", "correction"]
    assert "thermal" not in {f.name for f in dataclasses.fields(evonets.LmdtConfig)}


# every model renderer, by the module that defines it
RENDERERS = {
    "cascade": ["describe_cascade", "cascade_to_dot"],
    "gmdh": ["to_polynomial_text", "gmdh_to_dot"],
    "linear": ["describe_linear_machine", "linear_machine_to_dot", "describe_pairwise_tree",
               "pairwise_tree_to_dot"],
    "ruletree": ["to_text", "ruletree_to_dot"],
    "baseline": ["describe_fnn"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in RENDERERS.items()
                                         for n in names])
def test_renderers_share_one_signature(module, name):
    # (model, feature_names, label_names), without defaults: the names come from
    # the model file's envelope, and a renderer takes both lists whether it
    # prints them or not
    render = getattr(importlib.import_module(f"evonets.{module}"), name)
    params = list(inspect.signature(render).parameters.values())
    assert [p.name for p in params[1:]] == ["feature_names", "label_names"]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_method_table_lists_the_renderers_themselves():
    renderers = {n for names in RENDERERS.values() for n in names}
    for row in evonets.modelio.METHODS.values():
        assert row.to_text.__name__ in renderers
        assert row.to_dot is None or row.to_dot.__name__ in renderers


@pytest.mark.parametrize("cls", [evonets.CascadeNetwork, evonets.PolyNetwork,
                                 evonets.PairwiseTree, evonets.RuleTree])
def test_models_hold_no_feature_names(cls):
    # the envelope (ModelBundle.feature_names) is the one holder of column names
    assert "feature_names" not in {f.name for f in dataclasses.fields(cls)}


def test_extract_rules_takes_no_names():
    assert list(inspect.signature(evonets.extract_rules).parameters) == ["X0", "X1", "pool"]
