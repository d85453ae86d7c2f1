// The benchmark is a module of its own so that it builds from this
// directory alone; it reaches the program under test through the replace
// line (the module path keeps the repro/ prefix, which is what lets it
// import repro/internal/...).
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
