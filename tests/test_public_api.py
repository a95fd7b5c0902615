"""The public API: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import evonets

MODULES = sorted(m.name for m in pkgutil.iter_modules(evonets.__path__))

# names deleted from the library, by the module that defined them
REMOVED = {
    "baseline": ["TrainingCurve", "PcaTransform", "pca_fit", "predict_fnn"],
    "neuron": ["classification_error", "sigmoid_out"],
    "dataset": ["xor_label"],
    "cascade": ["predict_cascade"],
    "gmdh": ["predict_poly", "eval_supporting_neuron"],
    "linear": ["ThermalSchedule", "wta_classify"],
}


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
