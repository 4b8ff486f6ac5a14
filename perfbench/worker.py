"""Run one ``analyze_repo`` call in a fresh process and print its cost as JSON.

    python3 perfbench/worker.py REPO OUT [--trace SPANS_JSON]

``linechurn`` must be importable (``PYTHONPATH=src``).  The process builds
nothing, so ``ru_maxrss`` of RUSAGE_SELF is the analysis' own peak, and of
RUSAGE_CHILDREN the largest git child's.  With ``--trace`` the pipeline's
calls are wrapped (see ``tracing.py``), the per-layer figures are added to
the output and the spans are written to SPANS_JSON after the call.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("repo", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    import numpy
    from linechurn import AnalysisConfig, diffstream, pipeline

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer(run_id=args.trace.stem)
        install(tracer, pipeline, diffstream)
        tracer.analyze_span = tracer.open("analyze_repo")

    config = AnalysisConfig(repo_path=args.repo, output_dir=args.out)
    start = time.perf_counter()
    manifest = pipeline.analyze_repo(config)
    end = time.perf_counter()

    result = {
        "analyze_s": end - start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "git_peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "aborted": manifest.aborted,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from tracing import layer_times, summarize

        tracer.analyze_span.start, tracer.analyze_span.end = start, end
        result["layers"] = layer_times(tracer)
        result["metrics"] = summarize(tracer, result["layers"])
        result["absent"] = tracer.absent
        args.trace.write_text(json.dumps({
            "spans": [span.record() for span in tracer.spans],
            "metrics": result["metrics"],
            "absent": tracer.absent,
        }, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
