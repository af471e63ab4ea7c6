package taskir

// RefRun exposes the reference interpreter to the external tests.
var RefRun = refRun
