"""Run configuration and report types shared by the command-line verbs.

Reports are deterministic: checks and tables are emitted in a canonical
order, and the JSON renderer sorts keys and serializes every integer as a
decimal string, so identical configurations produce byte-identical output.
Exit-code contract: 0 all checks pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, asdict

from .primes import is_prime


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    p: int = 2
    min_deg: int = -2
    max_deg: int = 4
    seed: int = 0
    trials: int = 1000
    fixture_path: str | None = None
    fmt: str = "markdown"
    assume_regular: bool = False
    check_regularity: bool = False
    truncate_out_of_range: bool = False
    max_weight: int = 5
    max_degree: int = 6

    def validate(self, need_prime: bool = False) -> None:
        if self.min_deg > self.max_deg:
            raise UsageError(f"empty degree range [{self.min_deg}, {self.max_deg}]")
        if self.fmt not in ("markdown", "json", "csv"):
            raise UsageError(f"unknown output format {self.fmt!r}")
        # a count below one would make a suite compare nothing and pass
        for name in ("trials", "max_weight"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_degree < 0:
            raise UsageError(f"max_degree must be at least 0, got {self.max_degree}")
        if need_prime and not is_prime(self.p):
            raise UsageError(f"p = {self.p} is not prime")

    def echo(self) -> dict:
        out = {}
        for k, v in asdict(self).items():
            if isinstance(v, bool) or v is None:
                out[k] = v
            elif isinstance(v, int):
                out[k] = str(v)
            else:
                out[k] = v
        return out

    @classmethod
    def from_key_value_file(cls, path: str) -> "RunConfig":
        """Plain key=value lines; '#' starts a comment."""
        cfg = cls()
        bool_fields = {"assume_regular", "check_regularity", "truncate_out_of_range"}
        int_fields = {"p", "min_deg", "max_deg", "seed", "trials", "max_weight", "max_degree"}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"malformed config line: {raw.rstrip()}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key in bool_fields:
                    setattr(cfg, key, value.lower() in ("1", "true", "yes", "on"))
                elif key in int_fields:
                    setattr(cfg, key, int(value))
                elif key in ("fmt", "format"):
                    cfg.fmt = value
                elif key == "fixture_path":
                    cfg.fixture_path = value
                else:
                    raise UsageError(f"unknown config key {key!r}")
        return cfg


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    payload: dict | None = None


@dataclass
class TableBlock:
    title: str
    headers: list[str]
    rows: list[list[str]]


@dataclass
class Report:
    command: str
    config: RunConfig
    checks: list[CheckResult] = field(default_factory=list)
    tables: list[TableBlock] = field(default_factory=list)

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
