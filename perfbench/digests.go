package main

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

// referenceDigests are the SHA-256 digests of each workload's checked
// output at defaultSeed: the records export (without ingest provenance
// for HTTP), or the manifest without wall times for the spec run. A
// speed-only change must leave them unchanged.
var referenceDigests = map[string]string{
	serveW:  "70df7463b369a5775ce32fe41cd2cd7d3913031f60ca82792f3ac4a355885203",
	httpW:   "f9377e558813f815da01319914e352493c2833d8ab79c4f992f3ceee6b6e48da",
	batchW:  "7054216f381bcabb31f4ac374aafc4ddead98325a37e862ec74e523e15fb1275",
	table2W: "4c32664adac6d5f1e2287cf9685dcbb61ed0cee4c406e63c975866bcc5db87d3",
}
