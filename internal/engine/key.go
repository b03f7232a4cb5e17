package engine

import (
	"reflect"
	"strconv"
	"strings"
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
// The key is derived by reflection over Params rather than a handwritten
// format string, so a future Params field is part of the key the moment it
// exists — the handwritten predecessor silently omitted new fields, serving
// stale results for any sweep over the new dimension until someone
// remembered this file. Fields tagged `json:"-"` are skipped: they are
// presence metadata, not parameters — after defaulting every Params carries
// the same constant FieldAll mask, so the mask can never distinguish two
// effective runs. TestCellKeyCoversEveryParamsField fails if a parameter
// field ever stops influencing the key.
func CellKey(scenario string, p Params) string {
	var buf [256]byte // a key is ~100 bytes: built on the stack, copied once
	b := append(buf[:0], scenario...)
	rv := reflect.ValueOf(&p).Elem()
	for _, f := range keyFields {
		b = append(append(append(b, '|'), f.Name...), '=')
		// Each kind Params has is written as fmt's %v writes it, the format
		// keys have always had: 'g' with the shortest precision for floats.
		switch v := rv.Field(f.Index[0]); v.Kind() {
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

// keyFields lists the Params fields CellKey writes, in declaration order:
// every field not tagged `json:"-"`.
var keyFields = func() (fields []reflect.StructField) {
	rt := reflect.TypeFor[Params]()
	for i := range rt.NumField() {
		if f := rt.Field(i); !strings.HasPrefix(f.Tag.Get("json"), "-") {
			fields = append(fields, f)
		}
	}
	return fields
}()

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
