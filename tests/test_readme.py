"""README states the command-line contract; each test holds one kind of fact it states to the code.

README is read here and nowhere else. The facts: the subcommand table is
``cli.COMMANDS``; every ``rwre-lab`` command it shows exits as stated, and
writes the artifacts and fields it lists; the exit-code table is the
``cli.EXIT_*`` constants; the config block shows every key of ``cli.SCHEMA``
with its default and quotes its rule; every quoted ``module.NAME`` holds the
value stated; the start-up table counts what each subcommand loads.
"""

import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

import oracles
from rwre_lab import cli
from rwre_lab.environments import MarkovFieldLaw
from test_startup import BASE, MODULES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre_lab"
README = (ROOT / "README.md").read_text()
MODULE_NAMES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
SECTIONS = {key.split(".")[0] for key in cli.SCHEMA if "." in key}


def table(header: str) -> list:
    """The cells of each row of the README table whose header row starts with ``header``."""
    lines = README[README.index(f"\n| {header}"):].splitlines()[3:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def quoted(cell: str) -> list:
    return re.findall(r"`([^`]+)`", cell)


def lines(path: Path) -> int:
    """What ``wc -l`` prints for ``path``."""
    return path.read_bytes().count(b"\n")


def module_file(name: str) -> Path:
    return PACKAGE / ("__init__.py" if name == "rwre_lab" else name.split(".")[-1] + ".py")


# ---------------------------------------------------------------------------
# subcommands, their runs and their artifacts
# ---------------------------------------------------------------------------

def shown_commands() -> list:
    """(id, argv without --out, stated exit) of every ``rwre-lab`` line of README's code blocks."""
    runs = []
    for block in re.findall(r"```bash\n(.*?)```", README, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("rwre-lab "):
                command, stated = line.split("# exit ")
                argv = shlex.split(command)[1:]
                out = argv.index("--out")
                del argv[out:out + 2]
                config = Path(argv[argv.index("--config") + 1]).stem if "--config" in argv else ""
                runs.append((f"{config or 'defaults'}-{argv[-1]}", argv, int(stated)))
    return runs


SHOWN = shown_commands()
ARTIFACTS = {row[0].strip("`"): quoted(row[2]) for row in table("subcommand | help")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each shown command's exit code and its --out directory, run once in-process."""
    done = {}
    for name, argv, _ in SHOWN:
        out = tmp_path_factory.mktemp(name)
        args = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
        done[name] = (cli.main(args[:-1] + ["--out", str(out), args[-1]]), out)
    return done


def test_the_subcommand_table_is_the_commands_table():
    rows = table("subcommand | help")
    assert [(row[0].strip("`"), row[1]) for row in rows] == [
        (name, text) for name, (_, text) in cli.COMMANDS.items()]


@pytest.mark.parametrize("name, argv, stated", SHOWN, ids=[run[0] for run in SHOWN])
def test_each_shown_command_exits_as_stated(runs, name, argv, stated):
    assert runs[name][0] == stated


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_default_run_writes_the_listed_artifacts(runs, command):
    out = runs[f"defaults-{command}"][1]
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS[command])


FIELD_ROWS = table("artifact | fields")


@pytest.mark.parametrize("artifact, fields", FIELD_ROWS,
                         ids=[" ".join(quoted(row[0])) for row in FIELD_ROWS])
def test_each_artifact_lists_the_fields_a_default_run_writes(runs, artifact, fields):
    name, *part = quoted(artifact)
    command = next(c for c, files in ARTIFACTS.items() if name in files)
    path = runs[f"defaults-{command}"][1] / name
    if name.endswith(".csv"):
        meta, header = path.read_text().splitlines()[:2]
        assert re.fullmatch(r"# config_hash=[0-9a-f]{16} seed=\d+", meta)
        assert quoted(fields) == header.split(",")
        return
    value = json.loads(path.read_text())
    for key in part:
        value = value[key]
    keys = set().union(*value) if isinstance(value, list) else set(value)
    assert sorted(quoted(fields)) == sorted(keys)


def test_no_csv_line_ends_in_a_carriage_return(runs):
    written = [path for command in cli.COMMANDS
               for path in runs[f"defaults-{command}"][1].glob("*.csv")]
    assert sorted(path.name for path in written) == sorted(
        name for files in ARTIFACTS.values() for name in files if name.endswith(".csv"))
    assert all(b"\r" not in path.read_bytes() for path in written)


def test_the_family_table_is_what_verify_reports(runs):
    report = json.loads((runs["defaults-verify"][1] / "verify_report.json").read_text())
    rows = table("family | metric")
    assert [row[0].strip("`") for row in rows] == [r["family"] for r in report["families"]]
    for row, family in zip(rows, report["families"]):
        constant = re.fullmatch(r"`cli\.(\w+)` = .+", row[2]).group(1)
        assert getattr(cli, constant) == family["tolerance"]


def test_the_exit_code_table_is_the_exit_constants():
    stated = {}
    for row in table("code | meaning"):
        name, value = re.fullmatch(r"`cli\.(EXIT_\w+)` = (\d+)", row[0]).groups()
        stated[name] = int(value)
    assert stated == {name: value for name, value in vars(cli).items()
                      if name.startswith("EXIT_")}


# ---------------------------------------------------------------------------
# names, constants and paths
# ---------------------------------------------------------------------------

def number(text: str):
    """A stated number: an integer, a float literal or base**exponent."""
    text = text.rstrip(".")
    if "**" in text:
        base, exponent = text.split("**")
        return int(base) ** int(exponent)
    return float(text) if any(c in text for c in ".e") else int(text)


CONSTANT = re.compile(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*)`(?:\s*=\s*(-?[0-9][0-9.e*+-]*))?")


@pytest.mark.parametrize("dotted", sorted({f"{m}.{n}" for m, n, _ in CONSTANT.findall(README)}))
def test_each_quoted_constant_holds_its_stated_value(dotted):
    # a number is quoted as `module.NAME` = value wherever it appears
    module, name = dotted.split(".")
    actual = getattr(importlib.import_module(f"rwre_lab.{module}"), name)
    values = [v for m, n, v in CONSTANT.findall(README) if f"{m}.{n}" == dotted]
    if isinstance(actual, (int, float)) and not isinstance(actual, bool):
        assert all(v and number(v) == actual for v in values), values
    else:
        assert values == [""] * len(values)


def test_each_dotted_name_is_a_module_attribute_or_a_config_key():
    for head, tail in re.findall(r"`(\w+)\.(\w+)[^`]*`", README):
        if head in MODULE_NAMES:
            assert hasattr(importlib.import_module(f"rwre_lab.{head}"), tail), (head, tail)
        elif head in SECTIONS:
            assert f"{head}.{tail}" in cli.SCHEMA, (head, tail)


def test_each_quoted_path_exists():
    for path in re.findall(r"`([\w./-]+/[\w./-]*)`", README):
        assert (ROOT / path).exists(), path


def test_each_named_judge_is_in_the_oracles():
    paragraph = README[README.index("`tests/oracles.py` holds"):].split("\n\n")[0]
    names = [n for n in quoted(paragraph) if re.fullmatch(r"[a-z_]+", n)]
    assert names and all(hasattr(oracles, name) for name in names)


def test_the_module_list_is_the_package():
    assert set(re.findall(r"^- `(\w+)`: ", README, re.MULTILINE)) == MODULE_NAMES


# ---------------------------------------------------------------------------
# the config block
# ---------------------------------------------------------------------------

def leaves(config: dict) -> dict:
    """Dotted key -> value of each leaf of a config, sections one level deep."""
    flat = {}
    for key, val in config.items():
        flat.update({f"{key}.{k}": v for k, v in val.items()} if isinstance(val, dict)
                    else {key: val})
    return flat


def config_block() -> dict:
    """Dotted key -> (value, comment) of each leaf of README's config block, one leaf a line."""
    block = README.split("## Config\n", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    code, comments = [], []
    for line in block.splitlines():
        text, _, comment = line.partition("//")
        code.append(text)
        if comment:
            comments.append(comment.strip())
    shown = leaves(json.loads("\n".join(code)))
    assert len(shown) == len(comments)
    return {key: (val, comment) for (key, val), comment in zip(shown.items(), comments)}


BLOCK = config_block()
SHAPE_WORDS = {(): "", (cli.D,): "d entries: ", (cli.ANY,): "one or more: ",
               (cli.ANY, cli.D): "rows of d: ", (cli.ANY, cli.D2): "rows of 2d: ",
               (cli.ANY, 2): "rows of 2: "}


def test_the_config_block_lists_the_schema_keys():
    assert set(BLOCK) == set(cli.SCHEMA)


def test_the_config_block_shows_the_defaults():
    field = inspect.signature(MarkovFieldLaw).parameters
    stated = leaves(cli.DEFAULT_CONFIG)
    stated.update({f"law.{k}": field["range_r" if k == "range" else k].default
                   for k in cli.LAW_OPTIONAL})
    assert {key: BLOCK[key][0] for key in stated} == stated
    for key in set(cli.SCHEMA) - set(stated):
        assert "no default" in BLOCK[key][1], key


@pytest.mark.parametrize("key", list(cli.SCHEMA))
def test_each_comment_quotes_its_rule(key):
    rule, shape = cli.SCHEMA[key]
    phrases = ", ".join(r[0] for r in rule) if isinstance(rule, list) else rule[0]
    comment = BLOCK[key][1]
    assert comment.startswith(SHAPE_WORDS[shape] + phrases)
    assert ("or null" in comment) == (key in cli.NULLABLE)
    if key.startswith("law."):
        kinds = [kind for kind, keys in cli.LAW_KEYS.items() if key[4:] in keys]
        if len(kinds) == 1:
            assert f"{kinds[0]}, " in comment
        assert ("optional" in comment) == (key[4:] in cli.LAW_OPTIONAL)


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

ROW = re.compile(r"^\| `([a-z-]+)` \| ([^|]+) \| (\d+) \|$", re.MULTILINE)


def test_the_table_has_a_row_per_subcommand():
    assert sorted(command for command, _, _ in ROW.findall(README)) == sorted(MODULES)


@pytest.mark.parametrize("command", sorted(MODULES))
def test_each_row_counts_what_its_subcommand_loads(command):
    (modules, stated), = [(m, n) for c, m, n in ROW.findall(README) if c == command]
    beyond = {name.split(".")[-1] for name in MODULES[command] - BASE}
    assert set(quoted(modules)) == beyond
    files = {PACKAGE / "cli.py"} | {module_file(name) for name in MODULES[command]}
    assert int(stated) == sum(lines(path) for path in files)


def test_the_total_is_all_of_src():
    stated = re.search(r"`src/` holds (\d+)\s+lines", README)
    assert stated and int(stated.group(1)) == sum(map(lines, PACKAGE.glob("*.py")))
