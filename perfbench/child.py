"""One benchmark job in a fresh interpreter.

    python child.py RESULT_JSON T_SPAWN TRACE [trafficflow CLI args...]

T_SPAWN is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s covers interpreter start-up
and the import of trafficflow.cli. With no CLI args the child only imports,
reports setup_s and exits; the first such child compiles bytecode and warms
the file cache. With TRACE=1 the package's public functions are wrapped
(see tracing.py) and the spans are written next to the result.
"""

import json
import resource
import sys
import time


def main() -> None:
    result_path, t_spawn, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    import trafficflow.cli as cli
    setup_s = time.monotonic() - t_spawn
    if not argv:
        with open(result_path, "w") as f:
            json.dump({"rc": 0, "setup_s": setup_s}, f)
        return
    tracer = None
    if traced == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    job_s = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {"rc": rc, "setup_s": setup_s, "job_s": job_s,
              "peak_rss_mib": r1.ru_maxrss / 1024.0,
              # diagnostics of the job alone, not reported as metrics
              "user_s": r1.ru_utime - r0.ru_utime,
              "sys_s": r1.ru_stime - r0.ru_stime,
              "minor_faults": r1.ru_minflt - r0.ru_minflt}
    if tracer is not None:
        result["layers"] = tracer.per_layer()
        tracer.dump(result_path + ".spans.json")
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
