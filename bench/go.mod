// The benchmark is a module of its own (its build file lives here, next to
// the code it builds).  The module path sits under infopipes/ so the
// benchmark may import infopipes/internal/...; the runtime itself is the
// checkout this directory is part of.
module infopipes/bench

go 1.24.0

require infopipes v0.0.0

replace infopipes => ../
