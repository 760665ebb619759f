// The benchmark is its own module so that the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path sits under gsim/ so the harness may import gsim/internal/... for
// the in-process layer ladder.
module gsim/benchmark

go 1.22

require gsim v0.0.0

replace gsim => ../
