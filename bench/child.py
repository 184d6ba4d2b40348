"""Child-process helpers of the benchmark, run with PYTHONPATH set to src.

    python3 bench/child.py setup CSV
        Times `import heliobench` and `load_corpus(CSV)` in a fresh
        interpreter and prints them as one JSON object.
    python3 bench/child.py calibrate
        Runs run.py's calibration kernel 3 times; the parent times the
        whole child, start-up included, as a host speed sample.
    python3 bench/child.py generate N_CATEGORIES SEED CSV
        Writes make_synthetic_corpus(n_categories=N_CATEGORIES, seed=SEED)
        to CSV. Done in a child so that generation stays out of the
        workload process's peak RSS.
"""

import json
import sys
import time


def main(argv):
    if argv[0] == "setup":
        start = time.perf_counter()
        import heliobench

        imported = time.perf_counter()
        corpus = heliobench.load_corpus(argv[1])
        loaded = time.perf_counter()
        print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                          "rows": len(corpus), "module": heliobench.__file__}))
    elif argv[0] == "generate":
        import heliobench

        corpus = heliobench.make_synthetic_corpus(n_categories=int(argv[1]), seed=int(argv[2]))
        heliobench.write_corpus_csv(corpus, argv[3])
    elif argv[0] == "calibrate":
        from run import HostSpeed

        HostSpeed(0.0).sample(3)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
