// The benchmark is its own module so that it builds from its own directory
// and never rides along with the root module's `go test ./...`. Its module
// path sits under photon/ so it may import photon's internal packages.
module photon/benchmark

go 1.24

require photon v0.0.0

replace photon => ../
