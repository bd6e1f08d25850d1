GO ?= go

.PHONY: all build test race fuzz bench bench-wallclock examples vet lint loc

all: lint build test

# hostbench/ is its own module (replace rfabric => ../), so ./... skips it;
# build (binary discarded) and vet it too, since it imports internal
# packages. Both only read the module.
build:
	$(GO) build ./...
	cd hostbench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smokes of the SQL front end and of execution through the
# façade on every access path; CI runs the same targets.
fuzz:
	$(GO) test ./internal/sql -fuzz FuzzParseSQL -fuzztime=20s
	$(GO) test . -run '^$$' -fuzz FuzzQuery -fuzztime=20s

bench:
	$(GO) test -bench=. -benchmem

# Host wall-clock and allocations per query of the batch pipeline on the
# TPC-H scan benchmarks, plus the warm/cold group-cache pair.
bench-wallclock:
	$(GO) test ./internal/engine -run '^$$' -bench 'Wallclock|Sequence' -benchmem

# Run every example program. Each checks itself: htap exits through
# log.Fatal when a snapshot's fabric-folded balance breaks its invariant.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

vet:
	$(GO) vet ./...
	cd hostbench && $(GO) vet ./...

# Static analysis: staticcheck when installed (go install
# honnef.co/go/tools/cmd/staticcheck@latest), always go vet.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

# Non-test Go lines per package directory and in total, hostbench/ and
# testdata excluded: the count simplicity changes are judged by. It only
# prints; it gates nothing.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './hostbench/*' \
		! -path '*/testdata/*' ! -path './.bench_build/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
