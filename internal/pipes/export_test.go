package pipes

// SplitBase reports the Seq a spread split forwarded first (0 until then),
// the value its paired seq merge starts the rebuilt stream at.
func SplitBase(t *Split) int64 { return t.base.Load() }
