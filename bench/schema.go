package main

import "encoding/json"

// benchmarkFile is BENCHMARK.json. The program's own tables are the source;
// `bench -schema` prints the file and the schema test keeps the committed
// copy equal to it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bound: a zero Bound is left out
}

func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 14,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}
