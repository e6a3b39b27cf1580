"""Static checks that the decode and CLI layers keep classes as index vectors.

pipeline.py and cli.py pass activation classes along as one int64 vector of
class indices 1..10, from predict_batch to the WAV, and gen-data writes its
dataset from the generator's arrays. The per-frame objects, the datasets built
of them and the list-returning wrappers exist for the public API only.
"""

import ast
import inspect

import pytest

from neurof0 import cli, pipeline

OBJECT_APIS = {"ActivationClass", "EegFrame", "derive_labels", "window_frames",
               "predict_trajectory", "split_dataset", "from_classes",
               "generate_dataset", "dataset_to_recording", "LabeledDataset"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.fixture(params=[pipeline, cli], ids=lambda m: m.__name__)
def module_tree(request):
    return ast.parse(inspect.getsource(request.param))


def test_calls_no_object_api(module_tree):
    called = set()
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert called & OBJECT_APIS == set()


def test_no_comprehension_over_index_or_level(module_tree):
    found = [ast.unparse(comp) for comp in ast.walk(module_tree)
             if isinstance(comp, COMPREHENSIONS)
             for node in ast.walk(comp)
             if isinstance(node, ast.Attribute) and node.attr in ("index", "level")]
    assert found == []
