// photon-lint is the project's vet tool: three analyzers that enforce the
// determinism contracts statically (see internal/analysis).
//
// Run it through the vet driver:
//
//	go build -o bin/photon-lint ./cmd/photon-lint
//	go vet -vettool=$PWD/bin/photon-lint ./...
//
// or directly with package patterns, which re-execs go vet for you:
//
//	bin/photon-lint ./...
package main

import "repro/internal/analysis"

func main() {
	analysis.Main()
}
