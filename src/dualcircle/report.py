"""Run configuration and report types shared by the command-line verbs.

Reports are deterministic: checks and tables are emitted in a canonical
order, and the JSON renderer sorts keys, so identical configurations
produce byte-identical output.  The config echo and group atoms write
integers as decimal strings; a few payload fields are JSON numbers: the
``trials`` of an operad check's PASS and the ``weight``, ``lo`` and ``hi``
of an ``hh-weight`` FAIL's inputs.
Exit-code contract: 0 all checks pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import io
import json

from .primes import is_prime


class UsageError(Exception):
    pass


# the most trials of operad check: about 0.1 ms each, so about 10 s at the cap
MAX_TRIALS = 10**5

# the most bytes a file named by --replay, --config or --fixtures may hold;
# the largest packaged fixture file holds 3 KB
MAX_FILE_BYTES = 1 << 20


def read_bounded(path: str, what: str) -> str:
    """The text of the ``what`` file at ``path``, read as UTF-8; a usage
    error if it holds more than ``MAX_FILE_BYTES`` bytes, so that an endless
    file such as /dev/zero is refused after reading that many."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise UsageError(f"{what} {path} holds more than {MAX_FILE_BYTES} bytes")
    return data.decode()


def read_json(path: str, what: str):
    """The JSON value in the ``what`` file at ``path``, read by
    ``read_bounded``, or a one-line usage error naming the file."""
    try:
        return json.loads(read_bounded(path, what))
    except OSError as exc:
        fault = f"cannot be read: {exc.strerror}"
    except UnicodeDecodeError as exc:
        fault = f"is not UTF-8 text: byte {exc.start} is {exc.object[exc.start]:#04x}"
    except json.JSONDecodeError as exc:
        fault = f"is not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
    except ValueError:  # int() refuses a literal above the interpreter's digit limit
        fault = "holds an integer with more digits than Python reads"
    except RecursionError:
        fault = "nests arrays or objects too deeply to read"
    raise UsageError(f"{what} {path} {fault}")


class RunConfig:
    """The options of a run, each an attribute."""

    # every option in the order the report echoes it, with its default; the
    # type of a default is the type of the option's values (None: text)
    FIELDS = {"p": 2, "min_deg": -2, "max_deg": 4, "seed": 0, "trials": 1000,
              "fixture_path": None, "fmt": "markdown", "assume_regular": False,
              "check_regularity": False, "truncate_out_of_range": False,
              "max_weight": 5, "max_degree": 6}
    __slots__ = tuple(FIELDS)

    def __init__(self, **options):
        for name, default in self.FIELDS.items():
            setattr(self, name, options.pop(name, default))
        if options:
            raise TypeError(f"unknown run options {sorted(options)}")

    def validate(self, need_prime: bool = False) -> None:
        if self.min_deg > self.max_deg:
            raise UsageError(f"empty degree range [{self.min_deg}, {self.max_deg}]")
        if self.fmt not in ("markdown", "json", "csv"):
            raise UsageError(f"unknown output format {self.fmt!r}")
        # a count below one would make a suite compare nothing and pass
        for name in ("trials", "max_weight"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.trials > MAX_TRIALS:
            raise UsageError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")
        if self.max_degree < 0:
            raise UsageError(f"max_degree must be at least 0, got {self.max_degree}")
        if need_prime and not is_prime(self.p):
            raise UsageError(f"p = {self.p} is not prime")

    def echo(self) -> dict:
        """Every option by name, an integer as decimal text."""
        out = {}
        for name in self.FIELDS:
            v = getattr(self, name)
            out[name] = str(v) if isinstance(v, int) and not isinstance(v, bool) else v
        return out

    @classmethod
    def from_key_value_file(cls, path: str, **defaults) -> "RunConfig":
        """Plain key=value lines; '#' starts a comment.  Booleans read
        1/true/yes/on or 0/false/no/off; 'format' names the fmt field.
        ``defaults`` are field values that the file may override."""
        cfg = cls(**defaults)
        # lines split as a file opened in text mode splits them
        for raw in io.StringIO(read_bounded(path, "config file"), newline=None):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            key = "fmt" if key == "format" else key
            if key not in cls.FIELDS:
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_config_value(key, value, type(cls.FIELDS[key])))
        return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_config_value(key: str, value: str, kind: type):
    if kind is bool:
        if value.lower() not in _BOOLEANS:
            raise UsageError(f"config key {key!r}: expected a boolean, got {value!r}")
        return _BOOLEANS[value.lower()]
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"config key {key!r}: expected an integer, got {value!r}") from None
    return value


class CheckResult:
    """One report line: its name, status ("pass", "fail" or "skip") and
    payload."""

    __slots__ = ("name", "status", "payload")

    def __init__(self, name: str, status: str, payload: dict | None = None):
        self.name, self.status, self.payload = name, status, payload


class TableBlock:
    __slots__ = ("title", "headers", "rows")

    def __init__(self, title: str, headers: list[str], rows: list[list[str]]):
        self.title, self.headers, self.rows = title, headers, rows


class Report:
    __slots__ = ("command", "config", "checks", "tables")

    def __init__(self, command: str, config: RunConfig,
                 checks: list[CheckResult] | None = None):
        self.command, self.config = command, config
        self.checks = [] if checks is None else checks
        self.tables: list[TableBlock] = []

    def add_pass(self, name: str, payload: dict | None = None):
        self.checks.append(CheckResult(name, "pass", payload))

    def add_fail(self, name: str, payload: dict | None = None):
        self.checks.append(CheckResult(name, "fail", payload))

    def add_skip(self, name: str, payload: dict | None = None):
        self.checks.append(CheckResult(name, "skip", payload))

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    # renderers ---------------------------------------------------------

    def render(self) -> str:
        fmt = self.config.fmt
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_markdown()

    def to_markdown(self) -> str:
        out = [f"# {self.command}", ""]
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(self.config.echo().items())
                        if v is not None)
        out.append(f"config: {cfg}")
        out.append("")
        for block in self.tables:
            out.append(f"## {block.title}")
            out.append("")
            out.append("| " + " | ".join(block.headers) + " |")
            out.append("|" + "|".join("---" for _ in block.headers) + "|")
            for row in block.rows:
                out.append("| " + " | ".join(row) + " |")
            out.append("")
        for c in self.checks:
            line = f"{c.status.upper()} {c.name}"
            if c.payload and c.status == "fail":
                line += "  " + json.dumps(c.payload, sort_keys=True)
            out.append(line)
        out.append("")
        out.append(f"result: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "config": self.config.echo(),
            "checks": [
                {"name": c.name, "status": c.status, "payload": c.payload}
                for c in self.checks
            ],
            "tables": [
                {"title": b.title, "headers": b.headers, "rows": b.rows}
                for b in self.tables
            ],
            "ok": self.ok,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        for block in self.tables:
            writer.writerow([block.title])
            writer.writerow(block.headers)
            writer.writerows(block.rows)
            writer.writerow([])
        writer.writerow(["check", "status"])
        for c in self.checks:
            writer.writerow([c.name, c.status])
        return buf.getvalue()
