"""Static checks that the decode and CLI layers keep classes as index vectors.

pipeline.py and cli.py pass activation classes along as one int64 vector of
class indices 1..10, from predict_batch to the WAV, and gen-data writes its
dataset from the generator's arrays. The per-frame objects, the datasets built
of them and the list-returning wrappers exist for the public API only. The
recording CSV layout is eeg's alone: cli.py reads no CSV rows itself, and
in eeg.py each recording rule is worded, and so checked, in one function.
"""

import ast
import inspect

import pytest

from neurof0 import cli, eeg, pipeline

OBJECT_APIS = {"ActivationClass", "EegFrame", "derive_labels", "window_frames",
               "predict_trajectory", "split_dataset", "from_classes",
               "generate_dataset", "generate_movement", "dataset_to_recording",
               "LabeledDataset"}
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


def test_cli_reads_no_csv_rows():
    funcs = [node.func for node in ast.walk(ast.parse(inspect.getsource(cli)))
             if isinstance(node, ast.Call)]
    assert not any(getattr(f, "id", getattr(f, "attr", None)) == "_csv_rows" for f in funcs)


def test_no_comprehension_over_index_or_level(module_tree):
    found = [ast.unparse(comp) for comp in ast.walk(module_tree)
             if isinstance(comp, COMPREHENSIONS)
             for node in ast.walk(comp)
             if isinstance(node, ast.Attribute) and node.attr in ("index", "level")]
    assert found == []


def functions_wording(tree, text):
    """The innermost functions (as class.function paths) holding a string
    constant, docstrings aside, that contains text."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (*where, node.name)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.add(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return found


@pytest.mark.parametrize("text, owner", [
    ("signal columns", "EegRecording.__post_init__"),     # the channel count
    ("-row window", "_recording"),                        # angles on window starts
    ("kinematic values", "EegRecording.__post_init__"),   # the kinematics count
    ("non-finite sample", "EegRecording.__post_init__"),  # finite samples
    ("finite 1-D vector", "_vector"),                     # kinematics and trajectories
])
def test_each_recording_rule_in_one_function(text, owner):
    assert functions_wording(ast.parse(inspect.getsource(eeg)), text) == {owner}
