GO ?= go

.PHONY: all build test race fuzz bench bench-wallclock examples vet lint

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke of the SQL front end; CI runs the same target.
fuzz:
	$(GO) test ./internal/sql -fuzz FuzzParseSQL -fuzztime=20s

bench:
	$(GO) test -bench=. -benchmem

# Scalar-vs-vectorized wall-clock comparison on the TPC-H scan benchmarks,
# plus the warm/cold group-cache pair.
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

# Static analysis: staticcheck when installed (go install
# honnef.co/go/tools/cmd/staticcheck@latest), always go vet.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi
