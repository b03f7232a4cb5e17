package engine

import (
	"reflect"
	"strconv"
)

// CellKey canonicalizes a scenario name and its resolved params into the
// canonical result key every caching tier shares: the server's in-memory
// LRU, the persistent content-addressed store (internal/store), and the
// client-side read-through all key by exactly this string, so a result
// computed anywhere is a hit everywhere. Params must already be resolved
// (CanonicalCellKey): two requests that resolve to the same effective run
// map to the same key even when one spells the defaults out and the other
// omits them, or sets a dimension the scenario does not read.
//
// The key walks paramDims, the one enumeration of the parameters, writing
// each as |Name=value with the Params field's name, in the table's (and
// the struct's) order. The Explicit mask has no row: it is presence
// metadata, not a parameter — after defaulting every Params carries the
// same constant FieldAll mask, so it can never distinguish two effective
// runs. TestCellKeyCoversEveryParamsField reflects over the struct, so a
// parameter field without a row, which the key would ignore, fails it.
func CellKey(scenario string, p Params) string {
	var buf [256]byte // a key is ~100 bytes: built on the stack, copied once
	b := append(buf[:0], scenario...)
	rv := reflect.ValueOf(&p).Elem()
	for i := range paramDims {
		d := &paramDims[i]
		b = append(append(append(b, '|'), d.param...), '=')
		// Each kind Params has is written as fmt's %v writes it, the format
		// keys have always had: 'g' with the shortest precision for floats.
		switch v := rv.Field(d.pi); v.Kind() {
		case reflect.Float64:
			b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
		case reflect.String:
			b = append(b, v.String()...)
		default:
			b = strconv.AppendInt(b, v.Int(), 10)
		}
	}
	return string(b)
}

// CanonicalCellKey is the canonical result key of a cell resolved against
// a registry (resolve): a dimension its scenario does not read never
// distinguishes two keys. ok = false means the scenario is unknown, so its
// defaults cannot be applied and no canonical key exists.
func CanonicalCellKey(reg *Registry, c Cell) (string, bool) {
	_, p, ok := resolve(reg, c)
	if !ok {
		return "", false
	}
	return CellKey(c.Scenario, p), true
}
