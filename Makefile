# Development / CI entry points.
#
#   make ci      build + full test suite + format check + lint + fuzz smoke
#                + benchmark smoke
#   make build   compile everything
#   make test    run the alcotest/qcheck suites
#   make fmt     check formatting (skipped when ocamlformat is absent)
#   make lint    verify + lint + certificate-guarded simplify over every
#                benchmark and example system (exit 2 on a refuted/unknown
#                certificate, 4 on a scheduler/binder invariant violation,
#                3 on other error-severity findings)
#   make bench   quick benchmark smoke run (tables + short timings)
#   make bench-json
#                write a quick-mode run to _build/bench-quick.json and
#                validate it against the schema (the committed BENCH_*.json
#                files are never rewritten)
#   make fuzz    fixed-seed differential fuzz smoke run (200 systems, seed 1)

.PHONY: ci build test fmt lint fuzz bench bench-json

ci: build test fmt lint fuzz bench bench-json

lint:
	dune exec bin/polysynth.exe -- --benchmark all --check --lint --simplify
	@for f in examples/data/*.poly; do \
	  echo "== $$f"; \
	  dune exec bin/polysynth.exe -- "$$f" --check --lint --simplify || exit $$?; \
	done

fuzz:
	dune exec bin/fuzz.exe -- 200 1

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

bench:
	dune exec bench/main.exe -- --quick

bench-json:
	dune build bench/main.exe
	dune exec bench/main.exe -- --quick --json > _build/bench-quick.json
	dune exec bench/main.exe -- --validate _build/bench-quick.json
