# Development / CI entry points.
#
#   make ci      build + full test suite + Python unit tests + format check
#                + lint + fuzz smoke + benchmark smoke + evidence-record check
#   make build   compile everything
#   make test    run the alcotest/qcheck suites
#   make test-py run the Python unit tests (perfbench's runner, the
#                evidence-record checker and the export check)
#   make fmt     check formatting (skipped when ocamlformat is absent)
#   make lint    check that every value lib/ exports is called by program
#                code (test/check_exports.py, exceptions in
#                test/check_exports.allow); check that only
#                lib/expr/prog.ml (Prog.name_outputs) knows how outputs are
#                named: no "P%d" format, no literal output name such as
#                "P1" and no test for a leading 'P' elsewhere in lib/, bin/
#                or examples/ (perfbench keeps its own copy until its
#                replay is updated); then verify + lint +
#                certificate-guarded simplify over every benchmark system,
#                and over every example and test data system both exact
#                and with --ring (exit 2 on a refuted/unknown certificate,
#                4 on a scheduler/binder invariant violation, 3 on other
#                error-severity findings)
#   make bench   benchmark smoke run: one short perfbench run per workload,
#                failing unless every result is correct and none failed
#   make bench-records
#                check the committed BENCH_PR*.json evidence records: pair
#                order, quartiles, win counts and the claim rule
#   make fuzz    fixed-seed differential fuzz smoke run (200 systems, seed 1)
#   make golden  diff the output of experiments.exe in every mode, of
#                fuzz.exe 200 1, of make lint's commands, of a power-objective
#                compare of every example and test data system (exact and
#                --ring), of --evaluate --check --lint on every test data
#                program (exact and --ring) and the --fsmd Verilog and
#                summary line of every example data system against the
#                recorded files in test/golden/
#   make size    print the non-test line count: every .ml and .mli line
#                under lib/, bin/ and examples/ (not part of make ci)

.PHONY: ci build test test-py fmt lint fuzz golden bench bench-records size

ci: build test test-py fmt lint fuzz golden bench bench-records

# the polysynth commands of make lint; make golden diffs their stdout
# against test/golden/lint.txt
LINT_RUN = _build/default/bin/polysynth.exe --benchmark all --check --lint \
	  --simplify || exit $$?; \
	for f in examples/data/*.poly test/data/*.poly; do \
	  for ring in "" --ring; do \
	    echo "== $$f $$ring"; \
	    _build/default/bin/polysynth.exe "$$f" $$ring --check --lint \
	      --simplify || exit $$?; \
	  done; \
	done

# the given-program costing and lint that make golden diffs against
# test/golden/evaluate.txt
EVALUATE_RUN = for f in test/data/*.prog; do \
	  for ring in "" --ring; do \
	    echo "== $$f $$ring"; \
	    _build/default/bin/polysynth.exe "$$f" $$ring --evaluate --check \
	      --lint || exit $$?; \
	  done; \
	done

# the power-objective compare that make golden diffs against
# test/golden/power.txt
POWER_RUN = for f in examples/data/*.poly test/data/*.poly; do \
	  for ring in "" --ring; do \
	    echo "== $$f $$ring"; \
	    _build/default/bin/polysynth.exe "$$f" $$ring --objective power \
	      --compare --check --power -j 1 || exit $$?; \
	  done; \
	done

lint:
	python3 test/check_exports.py
	@if grep -rnE --include='*.ml' --include='*.mli' \
	  '"P%d|"P[0-9]|"P" \^|'"'"'P'"'"'' lib bin examples \
	  | grep -v '^lib/expr/prog.ml:'; then \
	  echo "output names belong to Prog.name_outputs"; exit 1; \
	fi
	dune build bin/polysynth.exe
	@$(LINT_RUN)

fuzz:
	dune exec bin/fuzz.exe -- 200 1

# each experiments mode writes test/golden/experiments[-MODE].txt; the
# default mode has no suffix.  examples/data/NAME.poly's sequential
# Verilog (--fsmd) is test/golden/fsmd-NAME.v and its "fsmd: ..." summary
# line is test/golden/fsmd-NAME.txt (the "wrote" line names a temporary
# file, so only the summary line is kept)
GOLDEN_MODES = fig1 ablation strategies objectives schedule extended mcm

golden:
	dune build bin/experiments.exe bin/fuzz.exe bin/polysynth.exe
	_build/default/bin/experiments.exe \
	  | diff -u test/golden/experiments.txt -
	@for m in $(GOLDEN_MODES); do \
	  echo "== experiments --$$m"; \
	  _build/default/bin/experiments.exe --$$m \
	    | diff -u test/golden/experiments-$$m.txt - || exit 1; \
	done
	_build/default/bin/fuzz.exe 200 1 | diff -u test/golden/fuzz-200-1.txt -
	@echo "== lint"; { $(LINT_RUN); } | diff -u test/golden/lint.txt -
	@echo "== power"; { $(POWER_RUN); } | diff -u test/golden/power.txt -
	@echo "== evaluate"; { $(EVALUATE_RUN); } \
	  | diff -u test/golden/evaluate.txt -
	@tmp=$$(mktemp) || exit 1; \
	for f in examples/data/*.poly; do \
	  name=$$(basename "$$f" .poly); \
	  echo "== fsmd $$f"; \
	  _build/default/bin/polysynth.exe "$$f" --fsmd "$$tmp" \
	    | grep '^fsmd: ' | diff -u test/golden/fsmd-$$name.txt - \
	    && diff -u test/golden/fsmd-$$name.v "$$tmp" \
	    || { rm -f "$$tmp"; exit 1; }; \
	done; \
	rm -f "$$tmp"

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

test-py:
	python3 -m unittest perfbench/test_run.py
	python3 test/test_check_bench_records.py
	python3 test/test_check_exports.py

# run.py exits 0 even when a result is incorrect, so read its last line:
# the result object
bench:
	@for w in sg-banks small-search warm-iterate; do \
	  echo "== perfbench $$w"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 0) || exit $$?; \
	  printf '%s\n' "$$out" | tail -n 1 | python3 -c \
	    'import json, sys; r = json.load(sys.stdin); \
	     print("correct:", r["correct"], "failed:", r["failed"]); \
	     sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
	    || exit 1; \
	done

bench-records:
	python3 test/check_bench_records.py

size:
	@find lib bin examples \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + \
	  | wc -l
