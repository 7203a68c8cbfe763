import pytest

from shapescene.errors import MalformedFile, of_type, parse_json


def test_parse_json_object():
    assert parse_json('{"a": [1, 2.5]}', "f.json") == {"a": [1, 2.5]}


@pytest.mark.parametrize("text, reason", [
    ('{"a": 1', "invalid JSON"),
    ("[1, 2]", "not a JSON object"),
    ("3", "not a JSON object"),
    ('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON"),  # past the recursion limit
    ('{"a": 1' + "0" * 5000 + "}", "invalid JSON"),  # past int's 4300-digit parse limit
])
def test_parse_json_malformed(text, reason):
    with pytest.raises(MalformedFile) as e:
        parse_json(text, "f.json")
    message = str(e.value)
    assert message.startswith(f"f.json: {reason}") and "\n" not in message


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3), (3, float, 3.0), (2.5, float, 2.5), ("x", str, "x"), ([1], list, [1]),
])
def test_of_type_accepts(value, kind, expected):
    got = of_type(value, kind, "v")
    assert got == expected and type(got) is kind


@pytest.mark.parametrize("value, kind", [
    (True, int), (False, float), (2.9, int), ("3", int), ("0.5", float), (None, float),
    ([1.0], float), (1, str), (10 ** 400, float),
])
def test_of_type_rejects(value, kind):
    # JSON true/false load as bool, a subclass of int: never a number.
    with pytest.raises(MalformedFile, match="^v "):
        of_type(value, kind, "v")
