"""Time what every `hot-tuner` call pays before any work, in a fresh process.

Usage: python3 setup_probe.py <src-dir> <config.json>

Prints one JSON object: the seconds spent importing hot_tuner.config (which
pulls in numpy and scipy), then the rest of hot_tuner.cli, then load_config,
then cfg.constants(). Interpreter start-up itself is not included.
"""
import json
import sys
from time import perf_counter


def main(src, config_path):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import hot_tuner.config
    t1 = perf_counter()
    import hot_tuner.cli
    t2 = perf_counter()
    cfg = hot_tuner.cli.load_config(config_path)
    t3 = perf_counter()
    cfg.constants()
    t4 = perf_counter()
    print(json.dumps({"import_config_s": t1 - t0, "import_cli_s": t2 - t1,
                      "load_config_s": t3 - t2, "constants_s": t4 - t3,
                      "setup_s": t4 - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
