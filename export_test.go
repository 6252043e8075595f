package kifmm

// The conformance case table, for conformance_golden_test.go: that test
// drives the service and the cluster, which import this package, so it
// lives in the external kifmm_test package.
type ConformanceCase = conformanceCase

var (
	DrawConformanceCases = drawConformanceCases
	ConformanceTol       = conformanceTol
	Rel                  = rel
)
