"""The config reader against the configparser dialect it replaces.

`cli._read_ini` reads INI text as Python 3.11's
`configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
default_section="", interpolation=None)` read it: the same sections, keys
and values in the same order, and the same message for a text it rejects.
The one exception is text after a header's closing `]`, which configparser
dropped and the reader rejects.  `READINGS` pins that parser's readings of
the dialect's corners; the corpus and the drawn texts are compared with the
installed configparser when it is the 3.11 one, and each of them with a
header tail must be rejected.
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
    # a header ends at the last "]" of its line
    ("[run] extra ]\n[a]b]\n", [("run] extra ", []), ("a]b", [])]),
    ("[ source ]\n", [(" source ", [])]),
    ("[run]\r\nseed = 3\r\nmode = exact\r\r\n", [("run", [("seed", "3"), ("mode", "exact")])]),
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


#: `_configparser_reading` of a text in which configparser read a header with text after its `]`
HEADER_TAIL = "header tail"


def _configparser_reading(text):
    """The installed configparser's reading of `text` in `READINGS`' form, or
    `HEADER_TAIL` when it matched a header line with text after the `]`."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="", interpolation=None)
    tails, header = [], parser.SECTCRE

    class Spy:
        def match(self, value):
            mo = header.match(value)
            if mo and mo.end() < len(value):
                tails.append(value)
            return mo

    parser.SECTCRE = Spy()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        return HEADER_TAIL if tails else f"config syntax error: {exc}"
    return HEADER_TAIL if tails else [(name, parser.items(name)) for name in parser.sections()]


def _reads_as_configparser(text):
    """The reader's reading of `text` is configparser's, or, where configparser
    read a header tail, an error that names it."""
    expected, got = _configparser_reading(text), _reading(text)
    if expected == HEADER_TAIL:
        assert isinstance(got, str) and re.match(r"config syntax error: text .* after header \[", got), text
    else:
        assert got == expected, text


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


#: (text with a header tail, the reader's error)
HEADER_TAILS = [
    ("[source] p0 = 0.5\n", "text 'p0 = 0.5' after header [source] (line 1)"),
    ("[run] extra ]\n[a]b] tail\n", "text 'tail' after header [a]b] (line 2)"),
    # only "\n" ends a line: a lone "\r" leaves the rest in the header's line
    ("[run]\rseed = 3\nmode = exact\n", "text 'seed = 3' after header [run] (line 1)"),
    # a "#" glued to the "]" starts no comment, as in a value
    ("[run]#c\nseed = 3\n", "text '#c' after header [run] (line 1)"),
    ("[run]\nseed = 3\n[source]  p0 ; c\n", "text 'p0' after header [source] (line 3)"),
]


@pytest.mark.parametrize(("text", "message"), HEADER_TAILS, ids=[repr(text)[:40] for text, _ in HEADER_TAILS])
def test_text_after_a_header_is_a_config_error(tmp_path, capsys, text, message):
    # configparser dropped it, so "[source] p0 = 0.5" read as "[source]" alone
    expected = f"config syntax error: {message}; a header stands alone on its line"
    assert _reading(text) == expected
    # a file is read with universal newlines, where a lone "\r" ends its line
    for command in ("validate", "event-ready") if "\r" not in text else ():
        assert cli.main([command, "--config", test_cli.write_ini(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: {expected}\n"


def test_a_comment_or_a_continuation_after_a_header_is_no_tail():
    text = "[source]  # the source\np0 = 0.01\n  [detector] x\n[run] ; the run\nseed = 3\n"
    assert _reading(text) == [("source", [("p0", "0.01\n[detector] x")]), ("run", [("seed", "3")])]


def test_the_reader_records_each_header_and_key_line():
    text = "# head\n[run]\n\nseed = 3\n  ; c\nmode = exact\n  more\n[Source]  ; x\nP0: 1\n"
    assert cli._read_ini(text) == {"run": (2, {"seed": (4, "3"), "mode": (6, "exact\nmore")}), "Source": (8, {"p0": (9, "1")})}


@only_311
def test_the_corpus_reads_as_the_installed_configparser_reads_it():
    corpus = _corpus()
    assert len(corpus) > 250
    for text in corpus:
        _reads_as_configparser(text)


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
PIECES = ["[run]", "[Run]", "[source]", "[]", "[a]b]", "[run] x", "[a]#b", "seed = 3", "Seed: 4", "out = a;b #c", "mode = x ;y", "p0 = 1;; ;c #d", "= 3", ": 4",
          "x", "  more", "\tmore", "#c", "  ;c", "", " ", "\f", "\xa0", "\r"]


@only_311
@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(PIECES), st.text("[]=:#; \t\r\f\xa0\x85aB0", max_size=10)), max_size=8).map("\n".join))
def test_drawn_texts_read_as_the_installed_configparser_reads_them(text):
    _reads_as_configparser(text)
