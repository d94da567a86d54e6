"""Rerun the pinned commands and measure how far their output moved.

The byte pins in ``data/*.json.gz`` hold cases of a command's argv and its
recorded exit code, stdout and, where recorded, stderr; a model-file case
also holds the model document its ``MODEL`` argument names.
``data/model_file_pins.json`` holds the averaged fields of model-file
``analyze`` reports, keyed by model name and order (test_model_files).
Every case runs through ``cli.main`` in this process.  Per file the report
gives the lines that moved, the largest absolute and relative move of each
numeric field, and every change of exit code or stderr.  A field is a CSV
column, or the dotted keys that enclose a JSON or text line.

    python tests/pin_recorder.py                         # report every pin file
    python tests/pin_recorder.py exact_pc_outputs        # report the files named
    python tests/pin_recorder.py --write exact_pc_outputs

Files are rewritten only under ``--write``, in the layout they were read in.
A contract change is measured by running it before the pins are rewritten.

The report opens with the host's fingerprint: the numpy version, the CPU
targets its SIMD loops run (the baseline it was built for and the dispatch
targets enabled on this CPU), the BLAS it calls, and the environment
variables that switch either, when set.  The pinned floats were recorded
on one host; a move seen on another starts from what differs here.
"""

import argparse
import contextlib
import gzip
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
MODEL_PINS = "model_file_pins"
MODEL_SLOT = "MODEL"  # a model-file case's --model-file argument
CSV_COMMANDS = ("scan", "compare", "boundary")

HOST_ENV = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                     r"|(?<![\w.])[-+]?(?:inf|nan|NaN)(?![\w.])")
_KEY = re.compile(r'\s*"?([A-Za-z_][\w ]*)"?:')


def host_fingerprint():
    """The report's header lines: numpy's version and BLAS, its enabled CPU
    targets, and the variables of :data:`HOST_ENV` that are set."""
    import numpy as np

    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    lines = [f"host: numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
             f"{blas.get('version', 'unknown')}"]
    for label, key in (("baseline", "baseline"), ("dispatch", "found")):
        lines.append(f"  CPU {label}: {' '.join(simd.get(key, [])) or 'none'}")
    lines += [f"  {name}={os.environ[name]}" for name in HOST_ENV if name in os.environ]
    return lines


@dataclass
class Report:
    """What moved in one pin file."""

    name: str
    cases: int = 0
    lines: int = 0
    moved_lines: int = 0
    # field -> [largest absolute move, largest relative move]
    moves: dict = field(default_factory=dict)
    exit_changes: list = field(default_factory=list)
    stderr_changes: list = field(default_factory=list)
    # moved lines whose text, numbers aside, changed: (case, recorded, fresh)
    reshaped: list = field(default_factory=list)

    @property
    def unchanged(self) -> bool:
        return not (self.moved_lines or self.exit_changes or self.stderr_changes)

    def note_move(self, name: str, old: float, new: float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            absolute = relative = 0.0
        else:
            absolute = abs(new - old)
            relative = absolute / abs(old) if old != 0.0 else math.inf
        largest = self.moves.setdefault(name, [0.0, 0.0])
        largest[0] = max(largest[0], absolute)
        largest[1] = max(largest[1], relative)

    def text(self) -> str:
        head = f"{self.name}: {self.cases} cases, {self.moved_lines} of {self.lines} lines moved"
        out = [head]
        for name, (absolute, relative) in sorted(self.moves.items()):
            if absolute or relative:
                out.append(f"  {name}: largest move {absolute:.3g} absolute, "
                           f"{relative:.3g} relative")
        for label, old, new in self.exit_changes:
            out.append(f"  exit code of {label}: {old} -> {new}")
        for label, old, new in self.stderr_changes:
            out.append(f"  stderr of {label}: {old!r} -> {new!r}")
        for label, old, new in self.reshaped:
            out.append(f"  reshaped line of {label}:\n    recorded: {old!r}\n    printed:  {new!r}")
        return "\n".join(out)


def _numbers(text: str):
    """The numeric tokens of ``text`` as floats, and ``text`` with each one
    replaced by ``#``."""
    return [float(m) for m in _NUMBER.findall(text)], _NUMBER.sub("#", text)


def line_fields(lines, csv: bool):
    """The field name of each numeric token of each line, per line: the CSV
    header's column names, or the dotted keys of the enclosing lines, by
    indentation, for JSON and text."""
    if csv:
        header = lines[0].split(",") if lines else []
        for line in lines:
            cells = line.split(",")
            yield [name for name, cell in zip(header, cells) if _numbers(cell)[0]]
        return
    stack = []  # (indent, key) of the enclosing lines
    for line in lines:
        indent = len(line) - len(line.lstrip(" "))
        while stack and stack[-1][0] >= indent:
            stack.pop()
        key = _KEY.match(line)
        keys = [k for _, k in stack]
        if key:
            keys.append(key.group(1))
            stack.append((indent, key.group(1)))
            line = line[key.end():]
        yield [".".join(keys) or "(top)"] * len(_numbers(line)[0])


def compare_output(report: Report, label: str, csv: bool, old: str, new: str):
    """Add the moved lines of one case's stdout to ``report``."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    report.lines += max(len(old_lines), len(new_lines))
    names = list(line_fields(old_lines, csv))
    for k, (a, b) in enumerate(itertools.zip_longest(old_lines, new_lines)):
        if a == b:
            continue
        report.moved_lines += 1
        (xs, shape_a), (ys, shape_b) = _numbers(a or ""), _numbers(b or "")
        if a is None or b is None or shape_a != shape_b or len(names[k]) != len(xs):
            report.reshaped.append((label, a, b))
            continue
        for name, x, y in zip(names[k], xs, ys):
            report.note_move(name, x, y)


def run_case(argv, model=None):
    """``cli.main(argv)`` with stdout and stderr captured: (exit, stdout,
    stderr).  A model document is written to a file that the ``MODEL``
    argument then names."""
    from floquet_avg import cli

    with tempfile.TemporaryDirectory() as tmp:
        if model is not None:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model, fh)
            argv = [path if arg == MODEL_SLOT else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _case_label(case) -> str:
    return " ".join(([case["name"]] if "name" in case else []) + case["argv"])


def measure_cases(name: str, cases):
    """Rerun the byte-pin ``cases``: (report, the cases as rerun)."""
    report = Report(name, cases=len(cases))
    fresh = []
    for case in cases:
        code, out, err = run_case(case["argv"], case.get("model"))
        label = _case_label(case)
        if code != case["exit"]:
            report.exit_changes.append((label, case["exit"], code))
        if err != case.get("stderr", ""):
            report.stderr_changes.append((label, case.get("stderr", ""), err))
        compare_output(report, label, case["argv"][0] in CSV_COMMANDS, case["stdout"], out)
        rerun = dict(case, exit=code, stdout=out)
        if "stderr" in case or err:
            rerun["stderr"] = err
        fresh.append(rerun)
    return report, fresh


def _leaves(value, path: str):
    """(field, number) of each number in a JSON value, list positions dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def measure_model_pins(pins: dict):
    """Rerun the reports ``data/model_file_pins.json`` holds: (report, the
    pins as rerun).  A moved line is a pinned report with a field that
    moved."""
    import test_model_files as models

    report = Report(MODEL_PINS, cases=len(pins), lines=len(pins))
    fresh = {}
    for key, pinned in pins.items():
        name, _, order = key.partition("/order")
        argv = ["analyze", "--model-file", MODEL_SLOT, "--order", order or "6"]
        code, out, err = run_case(argv, models.MODELS[name]())
        if code != 0:
            report.exit_changes.append((key, 0, code))
        if err:
            report.stderr_changes.append((key, "", err))
        doc = json.loads(out) if code == 0 else {}
        fresh[key] = {f: doc.get(f) for f in pinned}
        if fresh[key] == pinned:
            continue
        report.moved_lines += 1
        for f in pinned:
            old, new = list(_leaves(pinned[f], f)), list(_leaves(fresh[key][f], f))
            if [p for p, _ in old] != [p for p, _ in new]:
                report.reshaped.append((key, pinned[f], fresh[key][f]))
                continue
            for (path, x), (_, y) in zip(old, new):
                report.note_move(path, x, y)
    return report, fresh


def _pin_path(name: str, data: str) -> str:
    return os.path.join(data, name + (".json" if name == MODEL_PINS else ".json.gz"))


def _json_layout(raw: str, value):
    """json.dumps keyword arguments that print ``value`` as ``raw`` was
    printed, or indent 1 where none do."""
    for indent, separators in itertools.product((None, 0, 1, 2), (None, (",", ":"))):
        kwargs = {"indent": indent, "separators": separators}
        if json.dumps(value, **kwargs) in (raw, raw.rstrip("\n")):
            return kwargs
    return {"indent": 1}


def load(name: str, data: str = DATA):
    path = _pin_path(name, data)
    opener = open if name == MODEL_PINS else gzip.open
    with opener(path, "rt", encoding="utf-8") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def measure(name: str, data: str = DATA):
    """Rerun one pin file: (report, its contents as rerun)."""
    _, pinned = load(name, data)
    if name == MODEL_PINS:
        return measure_model_pins(pinned)
    return measure_cases(name, pinned)


def write(name: str, fresh, data: str = DATA):
    """Rewrite one pin file with ``fresh`` in the layout it has now."""
    from floquet_avg import cli

    raw, pinned = load(name, data)
    path = _pin_path(name, data)
    if name == MODEL_PINS:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.dumps_json(fresh) + "\n")
        return
    text = json.dumps(fresh, **_json_layout(raw, pinned))
    if raw.endswith("\n"):
        text += "\n"
    with open(path, "wb") as fh, gzip.GzipFile("", "wb", 9, fh, mtime=0) as gz:
        gz.write(text.encode("utf-8"))


def pin_names(data: str = DATA):
    names = sorted(f[:-len(".json.gz")] for f in os.listdir(data) if f.endswith(".json.gz"))
    return names + ([MODEL_PINS] if os.path.exists(_pin_path(MODEL_PINS, data)) else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="pin files to rerun (default: all)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the files named with the rerun output")
    parser.add_argument("--data", default=DATA, help="directory of the pin files")
    args = parser.parse_args(argv)
    if args.write and not args.names:
        parser.error("--write needs the names of the files to rewrite")
    print("\n".join(host_fingerprint()))
    moved = False
    for name in args.names or pin_names(args.data):
        report, fresh = measure(name, args.data)
        print(report.text())
        moved |= not report.unchanged
        if args.write and not report.unchanged:
            write(name, fresh, args.data)
            print(f"  rewrote {_pin_path(name, args.data)}")
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
