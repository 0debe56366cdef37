#!/usr/bin/env python3
"""Accept/reject table of the config schema, one key at a time.

Every ``SCHEMA`` key is set on its own to each value of ``VALUES``. Each case
prints one ``key = value: accepted`` or ``key = value: rejected: <message>``
line; an accepted case is followed by its frozen config (``render()``), the
four specs it builds and its learning-rate milestones, each line indented.
Diffing the output of two commits shows every config whose meaning or error
message changed between them.

Usage: python scripts/config_parity.py > parity.txt
"""

import sys

from sevx.config import SCHEMA, ConfigError, RunConfig
from sevx.se import INTEGRATIONS, POOLINGS

VALUES = (["0", "1", "2", "-1", "0.5", "1.5", "nan", "inf", "", "x", "1,2", "1,9", "1,x",
           "0.125"]
          + list(POOLINGS) + list(INTEGRATIONS)
          + ["-inf", "-0", "1e400", " 2 ", "1,", "1,,2", "4,3,2,1", " 1 , 3 ", "3", "0.99",
             "1e-9", "NaN", "+inf", "out/dir", "0.5,,0.75", "0.5,"])


def case_lines(key: str, value: str) -> list[str]:
    try:
        cfg = RunConfig({key: value})
    except ConfigError as exc:
        return [f"{key} = {value!r}: rejected: {exc}"]
    views = [cfg.model_spec(), cfg.se_config(), cfg.synth_spec(), cfg.dcf_params(),
             cfg.lr_milestones()]
    return ([f"{key} = {value!r}: accepted"]
            + [f"  {line}" for line in cfg.render().splitlines()]
            + [f"  {view!r}" for view in views])


def main() -> int:
    for key in SCHEMA:
        for value in VALUES:
            print("\n".join(case_lines(key, value)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
