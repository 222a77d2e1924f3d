"""Command-line interface.

Exit codes: 0 success, 2 precondition failure, 3 provider failure,
4 document budget exceeded (partial results persisted).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import PipelineConfig
from .errors import ClaimcheckError
from .jsonl import read_json
from .pipeline import LAYERS, ProviderSpec, resume, run
from .report import render_report


def _provider_spec(args: argparse.Namespace) -> ProviderSpec:
    return ProviderSpec(mode=args.provider, fixtures=args.fixtures,
                        playbook=args.playbook, backend=args.backend)


def _add_provider_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=["live", "replay", "scripted"],
                        default="replay")
    parser.add_argument("--fixtures", help="replay transcript file or dir")
    parser.add_argument("--playbook", help="scripted provider playbook")
    parser.add_argument("--backend",
                        help="live backend as module.path:function")
    parser.add_argument("--config", type=Path, help="pipeline config JSON")


# Each flag that overrides a config setting: {argument: config path}.
_OVERRIDES = {
    "budget": "document_budget",
    "window_days": "signals.correlation_window_days",
    "top_k": "crosssource.discovery_top_k",
    "max_hops": "crosssource.discovery_citation_hops",
}


def _config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config)
    for name, path in _OVERRIDES.items():
        if getattr(args, name, None) is not None:
            section, _, field = path.rpartition(".")
            setattr(getattr(cfg, section) if section else cfg, field,
                    getattr(args, name))
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Six-layer technical claim verification pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the full pipeline")
    run_p.add_argument("--query", required=True)
    run_p.add_argument("--corpus-dir", type=Path, required=True)
    run_p.add_argument("--out", type=Path, required=True)
    run_p.add_argument("--target-doc", help="slug or doc id of the seed")
    run_p.add_argument("--budget", type=int)
    run_p.add_argument("--stop-after", choices=list(LAYERS))
    _add_provider_args(run_p)

    resume_p = sub.add_parser("resume", help="continue an interrupted run")
    resume_p.add_argument("--run-dir", type=Path, required=True)
    resume_p.add_argument("--config", type=Path)

    # Per-layer subcommands execute the pipeline up to one layer.
    layer_commands = {
        "ingest": "layer1", "extract": "layer2", "verify-intra": "layer3",
        "verify-cross": "layer4", "signals": "layer5", "assess": "layer6",
    }
    for name, layer in layer_commands.items():
        layer_p = sub.add_parser(
            name, help=f"run the pipeline through {layer} and stop")
        layer_p.add_argument("--query", default="")
        layer_p.add_argument("--corpus-dir", type=Path)
        layer_p.add_argument("--out", "--run-dir", dest="out", type=Path,
                             required=True)
        layer_p.add_argument("--target-doc")
        layer_p.add_argument("--budget", type=int)
        if name == "verify-cross":
            layer_p.add_argument("--max-hops", type=int)
            layer_p.add_argument("--top-k", type=int)
        if name == "signals":
            layer_p.add_argument("--window-days", type=int)
        layer_p.set_defaults(stop_after=layer)
        _add_provider_args(layer_p)

    report_p = sub.add_parser("report", help="render a stored assessment")
    report_p.add_argument("--run-dir", type=Path, required=True)
    report_p.add_argument("--out", type=Path)
    report_p.add_argument("--format", choices=["machine", "narrative"],
                          default="machine")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            cfg = _config(args)
            state = run(args.query, args.corpus_dir, args.out, cfg,
                        _provider_spec(args), target_doc=args.target_doc,
                        stop_after=args.stop_after)
            print(f"run complete: {state.run_dir}")
        elif args.command == "resume":
            cfg = PipelineConfig.load(args.config) if args.config else None
            state = resume(args.run_dir, cfg)
            print(f"resume complete: {state.run_dir}")
        elif args.command == "report":
            payload = read_json(args.run_dir / "report" / "assessment.json")
            text = render_report(payload, args.format)
            if args.out:
                try:
                    args.out.write_text(text, encoding="utf-8")
                except OSError as exc:
                    raise ClaimcheckError(
                        f"cannot write {args.out}: {exc}") from exc
                print(f"report written: {args.out}")
            else:
                sys.stdout.write(text)
        else:  # per-layer subcommands
            cfg = _config(args)
            if args.corpus_dir is not None:
                state = run(args.query, args.corpus_dir, args.out, cfg,
                            _provider_spec(args), target_doc=args.target_doc,
                            stop_after=args.stop_after)
            else:
                # A config given for a run that exists must match its snapshot.
                given = any(getattr(args, name, None) is not None
                            for name in ("config", *_OVERRIDES))
                state = resume(args.out, cfg if given else None,
                               stop_after=args.stop_after)
            print(f"{args.command} complete: {state.run_dir}")
    except ClaimcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
