"""Static checks that the decode and CLI layers keep classes as index vectors.

pipeline.py and cli.py pass activation classes along as one int64 vector of
class indices 1..10, from predict_batch to the WAV, and gen-data writes its
dataset from the generator's arrays. The per-frame objects, the datasets built
of them and the list-returning wrappers exist for the public API only, and the
array core (fit, predict_batch, the generators, labelling and run_pipeline)
calls none of them. Each subcommand names its own handler in the parser. The
recording CSV layout is eeg's alone: cli.py reads no CSV rows itself, and
in eeg.py each recording rule is worded, and so checked, in one function,
and one function, _number, reads a number from a CSV cell; its readers name
the file and its helpers do not. Every text file the package writes names its
line separator, so no output follows the host's.
"""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

import neurof0
from neurof0 import arm, cli, datagen, eeg, forest, pipeline

OBJECT_APIS = {"ActivationClass", "EegFrame", "derive_labels", "window_frames",
               "predict_trajectory", "split_dataset", "from_classes",
               "generate_dataset", "generate_movement", "dataset_to_recording",
               "LabeledDataset"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
ARRAY_CORE = [forest.fit, forest.predict_batch, datagen._eeg, datagen._labeled_recording,
              datagen._movement_recording, arm.label_classes, pipeline.run_pipeline]


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


@pytest.mark.parametrize("func", ARRAY_CORE, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_array_core_calls_no_object_api(func):
    test_calls_no_object_api(ast.parse(inspect.getsource(func)))


def test_each_subcommand_runs_its_own_handler():
    # cli_main runs args.run, so a subcommand added without a handler fails here
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    required = {"synth": ["--f0", "f0.csv"]}
    handlers = {name: parser.parse_args([name, *required.get(name, [])]).run
                for name in sub.choices}
    assert handlers == {name: getattr(cli, "_cmd_" + name.replace("-", "_"))
                        for name in sub.choices}


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
    ("-sample window", "EegRecording.__post_init__"),     # at least one frame
    ("non-finite sample", "EegRecording.__post_init__"),  # finite samples
    ("finite 1-D vector", "_vector"),                     # kinematics and trajectories
])
def test_each_recording_rule_in_one_function(text, owner):
    assert functions_wording(ast.parse(inspect.getsource(eeg)), text) == {owner}


@pytest.mark.parametrize("name", ["_csv_rows", "_refusal", "_recording", "_cell_value"])
def test_eeg_helpers_leave_the_path_to_their_boundary(name):
    # load_recording_csv and read_column name the file once, by
    # errors.naming; a helper that named it too would print it twice
    tree = ast.parse(inspect.getsource(getattr(eeg, name)))
    named = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue)
             and any(isinstance(n, ast.Name) and n.id == "path" for n in ast.walk(node))]
    assert named == []


def test_cli_leaves_the_window_rule_to_the_recording():
    # the loader names the file when EegRecording refuses a short recording
    assert functions_wording(ast.parse(inspect.getsource(cli)), "-sample window") == set()


def test_only_number_turns_text_into_a_float():
    # eeg's one number grammar: float() is called, or handed to map, only
    # in _number, so every cell a CSV reader turns into a number goes there
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and any(
                isinstance(f, ast.Name) and f.id == "float" for f in (node.func, *node.args)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(inspect.getsource(eeg)), None)
    assert found == {"_number"}


def test_text_writes_name_their_line_separator():
    # without newline=, a text-mode write turns "\n" into the host's line
    # separator, so a pinned output would differ on a CRLF host
    found = []
    for path in sorted(Path(neurof0.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else ast.Constant("r"))
                # a mode that is not a literal counts as a text write
                text = getattr(mode, "value", "w")
                writes = "b" not in text and bool(set(text) & set("wax+"))
            else:
                writes = isinstance(node.func, ast.Attribute) and node.func.attr == "write_text"
            if writes and not any(k.arg == "newline" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
