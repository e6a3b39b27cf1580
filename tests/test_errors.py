import pytest

from neurof0.errors import DataError, ModelFileError, naming


def test_value_error_leaves_as_a_named_data_error():
    with pytest.raises(DataError) as info:
        with naming("data.csv"):
            raise ValueError("no data rows")
    assert type(info.value) is DataError
    assert str(info.value) == "data.csv: no data rows"
    assert info.value.__suppress_context__


def test_data_error_keeps_its_class():
    with pytest.raises(ModelFileError) as info:
        with naming("model.nf0f"):
            raise ModelFileError("model file is truncated")
    assert type(info.value) is ModelFileError
    assert str(info.value) == "model.nf0f: model file is truncated"
    assert info.value.__suppress_context__


def test_other_errors_pass_through():
    missing = FileNotFoundError(2, "No such file or directory")
    with pytest.raises(FileNotFoundError) as info:
        with naming("absent.csv"):
            raise missing
    assert info.value is missing and str(info.value) == str(missing)
