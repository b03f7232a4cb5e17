package forkchoice

// RootTableLen is the length of p's root table, the unused id 0 included:
// a test sees a renumber as the table getting shorter.
func (p *ProtoArray) RootTableLen() int { return len(p.roots) }
