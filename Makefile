.PHONY: check test vet build bench fuzz lint

build:
	go build ./...

vet:
	go vet ./...

# lint runs go vet plus mplint, the repo-native analyzer suite
# (internal/analysis/lint). mplint exits 0 when clean, 1 on findings,
# 2 on a load/type error, so a failing target always means something
# actionable.
lint:
	go vet ./...
	go run ./cmd/mplint ./...

test:
	go test ./...

# Full gate: vet + mplint + build + race-enabled tests + stress pass +
# fuzz smoke.
check:
	./scripts/check.sh

# bench runs the Go benchmarks once each, then the instrumented
# deployment benchmark (BENCH_core.json + BENCH_obs.json) and the
# result-cache benchmark (BENCH_cache.json: hot-read speedup and
# miss-path overhead).
bench:
	go test -bench . -benchtime 1x -run '^$$' .
	go run ./cmd/mpbench -exp bench -scale small
	go run ./cmd/mpbench -exp cache -scale small

# fuzz runs each fuzz target for longer than the check-gate smoke.
fuzz:
	go test ./internal/query/ -run '^$$' -fuzz '^FuzzFilterCompileMatch$$' -fuzztime 60s
	go test ./internal/query/ -run '^$$' -fuzz '^FuzzUpdateApply$$' -fuzztime 60s
	go test ./internal/document/ -run '^$$' -fuzz '^FuzzDocumentPath$$' -fuzztime 60s
	go test ./internal/document/ -run '^$$' -fuzz '^FuzzDocumentJSON$$' -fuzztime 60s
	go test ./internal/datastore/ -run '^$$' -fuzz '^FuzzKeyEncodingOrder$$' -fuzztime 60s
	go test ./internal/cluster/wire/ -run '^$$' -fuzz '^FuzzWireRequest$$' -fuzztime 60s
