"""The config reader against the configparser dialect it replaces.

`cli._read_ini` reads INI text as Python 3.11's
`configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
default_section="", interpolation=None)` read it: the same sections, keys
and values in the same order, and the same message for a text it rejects.
`READINGS` pins that parser's readings of the dialect's corners; the corpus
and the drawn texts are compared with the installed configparser when it
is the 3.11 one.
"""

import ast
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import test_cli
from stokesim import cli
from stokesim.errors import ConfigError

TESTS = pathlib.Path(__file__).parent

#: (text, Python 3.11 configparser's reading: [(section, [(key, value), ...]), ...],
#: or the ConfigError message of the text it rejects)
READINGS = [
    ("[run]\nseed = 3\nmode: exact\nout=a=b:c\nformat :json\n", [("run", [("seed", "3"), ("mode", "exact"), ("out", "a=b:c"), ("format", "json")])]),
    ("# head\n; head\n[run]\n  # indented\n\t; tabbed\nseed = 3\n", [("run", [("seed", "3")])]),
    (
        "[run]  # header\nseed = 3 ; three\nmode = exact# not a comment\nout = a;b #c\n",
        [("run", [("seed", "3"), ("mode", "exact# not a comment"), ("out", "a;b")])],
    ),
    # the search steps through both prefixes' occurrences in turn and stops at
    # the first step that finds one after whitespace: " #d" is cut, " ;c" is not
    ("[run]\nout = 1;; ;c #d\n", [("run", [("out", "1;; ;c")])]),
    (
        "[sweep]\nparameter = p0\nvalues = 0.01,\n  0.02\n\n\t0.03\n\n[run]\nseed = 3\n",
        [("sweep", [("parameter", "p0"), ("values", "0.01,\n0.02\n\n0.03")]), ("run", [("seed", "3")])],
    ),
    ("[sweep]\nvalues = 0.01\n  # not a value line\n  ; nor this\n  0.02 ; two\n", [("sweep", [("values", "0.01\n0.02")])]),
    ("[source]\np0 = 0.01\n  [detector]\n", [("source", [("p0", "0.01\n[detector]")])]),
    ("[run]\n  seed = 3\n  mode = exact\n    out = r.json\n", [("run", [("seed", "3"), ("mode", "exact\nout = r.json")])]),
    ("  [run]\n seed = 3\n", [("run", [("seed", "3")])]),
    ("[Run]\nSEED = 3\nMode = Exact\n[run]\nseed = 4\n", [("Run", [("seed", "3"), ("mode", "Exact")]), ("run", [("seed", "4")])]),
    ("[DEFAULT]\np0 = 0.9\n", [("DEFAULT", [("p0", "0.9")])]),
    ("[run]\nout = 100%.json\n[source]\nbeta = %(alpha)s\n", [("run", [("out", "100%.json")]), ("source", [("beta", "%(alpha)s")])]),
    ("[run]\nout =\nmode:\n", [("run", [("out", ""), ("mode", "")])]),
    # a header ends at the last "]" of its line, and what follows it is dropped
    ("[run] extra ]\n[a]b] tail\n", [("run] extra ", []), ("a]b", [])]),
    ("[ source ]\n", [(" source ", [])]),
    ("[run]\r\nseed = 3\r\nmode = exact\r\r\n", [("run", [("seed", "3"), ("mode", "exact")])]),
    # only "\n" ends a line: a lone "\r" leaves the rest in the header's line
    ("[run]\rseed = 3\nmode = exact\n", [("run", [("mode", "exact")])]),
    ("[run]\nseed\t=\t3\t\n\tmode = exact\n", [("run", [("seed", "3\nmode = exact")])]),
    ("[run]\nseed = 3\n\f\nmode = exact\f\n", [("run", [("seed", "3"), ("mode", "exact")])]),
    ("[run]\nout = a\n\fb\n", [("run", [("out", "a\nb")])]),
    ("[run]\nseed =\xa03\xa0\n\xa0mode = exact\n", [("run", [("seed", "3\nmode = exact")])]),
    ("[run]\nout = a\xa0#b\n", [("run", [("out", "a")])]),
    ("[run]\nseed = 3", [("run", [("seed", "3")])]),
    ("", []),
    ("\n \n\t\n", []),
    ("seed = 3\n", "config syntax error: File contains no section headers.\nfile: '<string>', line: 1\n'seed = 3\\n'"),
    ("# c\n\n  seed = 3 ; c\n", "config syntax error: File contains no section headers.\nfile: '<string>', line: 3\n'  seed = 3 ; c\\n'"),
    ("[run]\n[source]\n[run]\n", "config syntax error: While reading from '<string>' [line  3]: section 'run' already exists"),
    ("[run]\nseed = 3\nSeed: 4\n", "config syntax error: While reading from '<string>' [line  3]: option 'seed' in section 'run' already exists"),
    (
        "[run]\nseed 3\n[]\nmode = exact\n  \nx\n",
        "config syntax error: Source contains parsing errors: '<string>'\n\t[line  2]: 'seed 3\\n'\n\t[line  3]: '[]\\n'\n\t[line  6]: 'x\\n'",
    ),
    # a line with no key before its delimiter is an error, and still a key: a second one repeats it
    ("[run]\n= 3\n", "config syntax error: Source contains parsing errors: '<string>'\n\t[line  2]: '= 3\\n'"),
    ("[run]\n= 3\n: 4\n", "config syntax error: While reading from '<string>' [line  3]: option '' in section 'run' already exists"),
    # a repeat stops the read at once, before the bad lines above it are reported
    ("[run]\nseed 3\n[run]\n", "config syntax error: While reading from '<string>' [line  3]: section 'run' already exists"),
]


def _reading(text):
    """`cli._read_ini`'s reading of `text` in `READINGS`' form."""
    try:
        sections = cli._read_ini(text)
    except ConfigError as exc:
        return str(exc)
    return [(name, [(key, value) for key, (_, value) in keys.items()]) for name, (_, keys) in sections.items()]


def _configparser_reading(text):
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="", interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        return f"config syntax error: {exc}"
    return [(name, parser.items(name)) for name in parser.sections()]


def _corpus():
    """Every string in `tests/` that spans lines and holds a "[", the generated
    configs of `test_cli`'s parity cases, the README's config and `READINGS`."""
    texts = [text for text, _ in READINGS] + [case[1] for case in test_cli.PARITY]
    texts.append(re.search(r"```ini\n(.*?)```", test_cli.README.read_text(encoding="utf-8"), re.S).group(1))
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "[" in node.value and "\n" in node.value:
                texts.append(node.value)
    return list(dict.fromkeys(texts))


only_311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the reader follows Python 3.11's configparser")


@pytest.mark.parametrize(("text", "expected"), READINGS, ids=[repr(text)[:40] for text, _ in READINGS])
def test_the_reader_reads_as_configparser_read_it(text, expected):
    assert _reading(text) == expected


def test_the_reader_records_each_header_and_key_line():
    text = "# head\n[run]\n\nseed = 3\n  ; c\nmode = exact\n  more\n[Source]  ; x\nP0: 1\n"
    assert cli._read_ini(text) == {"run": (2, {"seed": (4, "3"), "mode": (6, "exact\nmore")}), "Source": (8, {"p0": (9, "1")})}


@only_311
def test_the_corpus_reads_as_the_installed_configparser_reads_it():
    corpus = _corpus()
    assert len(corpus) > 250
    for text in corpus:
        assert _reading(text) == _configparser_reading(text), text


@only_311
def test_a_syntax_error_exits_2_with_configparsers_message(tmp_path, capsys):
    for text, expected in READINGS:
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as exc:
                cli.parse_config(text)
            assert str(exc.value) == expected == _configparser_reading(text)
            assert cli.main(["validate", "--config", test_cli.write_ini(tmp_path, text)]) == 2
            assert capsys.readouterr().err == f"config error: {expected}\n"


#: pieces of config lines, whole or in part
PIECES = ["[run]", "[Run]", "[source]", "[]", "[a]b]", "seed = 3", "Seed: 4", "out = a;b #c", "mode = x ;y", "p0 = 1;; ;c #d", "= 3", ": 4",
          "x", "  more", "\tmore", "#c", "  ;c", "", " ", "\f", "\xa0", "\r"]


@only_311
@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(PIECES), st.text("[]=:#; \t\r\f\xa0\x85aB0", max_size=10)), max_size=8).map("\n".join))
def test_drawn_texts_read_as_the_installed_configparser_reads_them(text):
    assert _reading(text) == _configparser_reading(text)
