"""One benchmark child process: imports ortholat.cli, then runs the CLI in
this process, traced or not.

    python3 child.py TRACE_PATH [CLI ARGUMENT ...]

TRACE_PATH is `-` for an untraced run; otherwise the spans and per-layer
metrics are written there. With no CLI arguments the child stops after the
import, which is how the benchmark measures set-up.
"""
import sys


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    import ortholat.cli

    if not cli_args:
        return 0
    if trace_path == "-":
        return ortholat.cli.main(cli_args)

    import tracing
    from ortholat.suites import SUITES

    suite_functions = {key: fn.__name__ for key, fn in SUITES.items()}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = ortholat.cli.main(cli_args)
    tables = tracer.tables()
    tracer.dump(trace_path, tables,
                metrics=tracing.layer_metrics(tables, suite_functions))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
