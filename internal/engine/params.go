package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Field identifies one Params field for explicit-presence tracking; see
// Params.Explicit.
type Field uint16

// Field bits, one per Params field, in paramDims order.
const (
	FieldP0 Field = 1 << iota
	FieldBeta0
	FieldMode
	FieldSeed
	FieldN
	FieldHorizon
	FieldSample
	FieldRate
	FieldGST
	fieldEnd // one past the last bit
)

// FieldAll marks every Params field explicit — the mask of a fully
// specified record, which is what WithDefaults produces.
const FieldAll = fieldEnd - 1

// paramDim declares one run parameter. Every function that treats the
// parameters one by one — JSON, defaulting, String, the grid's cross
// product, FillFrom, ParseGrid, report columns, CLI flag marking — loops
// over paramDims, so a new dimension is one row plus its Params field, its
// Field bit and its Grid slot.
type paramDim struct {
	key   string // JSON key, sweep-grid key and CLI flag name
	field Field
	param string // Params field
	grid  string // Grid field: a list swept in the cross product, or a per-grid scalar
	// zero marks a dimension whose zero is a real value rather than "use
	// the scenario default": an explicit -rate 0 is the lossless baseline,
	// so a CLI marks the flag and FillFrom pins it.
	zero bool
	// String and the report show a dimension when it is non-zero, unless
	// one of these overrides that.
	always bool // p0: every result has an honest split
	hidden bool // sample is a sampling knob, not a coordinate

	pi, gi int // field indices in Params and Grid (set by init)
}

// paramDims is in Field bit order, which is also the cross-product order
// of Grid.Cells (p0 outermost) and the column order of String.
var paramDims = [...]paramDim{
	{key: "p0", field: FieldP0, param: "P0", grid: "P0", zero: true, always: true},
	{key: "beta0", field: FieldBeta0, param: "Beta0", grid: "Beta0", zero: true},
	{key: "mode", field: FieldMode, param: "Mode", grid: "Modes"},
	{key: "seed", field: FieldSeed, param: "Seed", grid: "Seeds"},
	{key: "n", field: FieldN, param: "N", grid: "N"},
	{key: "horizon", field: FieldHorizon, param: "Horizon", grid: "Horizons"},
	{key: "sample", field: FieldSample, param: "Sample", grid: "Sample", hidden: true},
	{key: "rate", field: FieldRate, param: "Rate", grid: "Rates", zero: true},
	{key: "gst", field: FieldGST, param: "GST", grid: "GSTs", zero: true},
}

// wireType is the JSON shape of Params, built from the table: one pointer
// field per row, ordered by key (the order encoding/json gives a map) and
// tagged with it and omitempty, so that nil means absent. wireRows maps its
// fields back to rows.
var (
	wireType reflect.Type
	wireRows []*paramDim
)

// gridKeys lists the sweep keys for ParseGrid's error: the swept
// dimensions in cross-product order, then the per-grid scalars.
var gridKeys string

func init() {
	pt, gt := reflect.TypeFor[Params](), reflect.TypeFor[Grid]()
	var lists, scalars []string
	for i := range paramDims {
		d := &paramDims[i]
		pf, ok1 := pt.FieldByName(d.param)
		gf, ok2 := gt.FieldByName(d.grid)
		if !ok1 || !ok2 || d.field != 1<<i || (gf.Type != pf.Type && gf.Type != reflect.SliceOf(pf.Type)) {
			panic("engine: paramDims row " + d.key + " does not match Params and Grid")
		}
		d.pi, d.gi = pf.Index[0], gf.Index[0]
		if gf.Type.Kind() == reflect.Slice {
			lists = append(lists, d.key)
		} else {
			scalars = append(scalars, d.key)
		}
		wireRows = append(wireRows, d)
	}
	gridKeys = strings.Join(append(lists, scalars...), ", ")
	slices.SortFunc(wireRows, func(a, b *paramDim) int { return strings.Compare(a.key, b.key) })
	var wire []reflect.StructField
	for _, d := range wireRows {
		f := pt.Field(d.pi)
		wire = append(wire, reflect.StructField{Name: f.Name, Type: reflect.PointerTo(f.Type), Tag: reflect.StructTag(`json:"` + d.key + `,omitempty"`)})
	}
	wireType = reflect.StructOf(wire)
}

// dimForKey resolves a canonical parameter key to its row (nil if none).
func dimForKey(key string) *paramDim {
	for i := range paramDims {
		if paramDims[i].key == key {
			return &paramDims[i]
		}
	}
	return nil
}

// Params parameterizes one scenario run. An UNSET field means "use the
// scenario's default" (see Scenario.Defaults and WithDefaults). Presence
// is tracked explicitly in the Explicit mask: a field is taken as set when
// it is non-zero OR its bit is marked, so an explicit rate=0 (lossless
// baseline), gst=0 (heal immediately), p0=0, or beta0=0 survives
// defaulting instead of being silently rewritten to the scenario default —
// the bug that used to corrupt the baseline cell of any sweep whose
// scenario defaults that dimension to a non-zero value. DecodeParams marks
// keys present in a JSON document; Grid.Cells marks swept dimensions;
// CLIs mark visited flags (MarkFlag).
type Params struct {
	// P0 is the honest split: the proportion of honest validators on
	// branch A (or the per-epoch placement probability in bouncing
	// scenarios).
	P0 float64 `json:"p0,omitempty"`
	// Beta0 is the initial Byzantine stake proportion.
	Beta0 float64 `json:"beta0,omitempty"`
	// Mode selects a scenario-specific variant (e.g. the Byzantine
	// strategy of the leaksim scenario).
	Mode string `json:"mode,omitempty"`
	// Seed drives every pseudo-random choice of stochastic scenarios.
	Seed int64 `json:"seed,omitempty"`
	// N scales the scenario (validator count).
	N int `json:"n,omitempty"`
	// Horizon bounds the run in epochs, or sets the evaluation epoch of
	// point estimates (bounce probabilities).
	Horizon int `json:"horizon,omitempty"`
	// Sample requests a trajectory sampled every Sample epochs in the
	// Result's Curve (0 = scalar metrics only).
	Sample int `json:"sample,omitempty"`
	// Rate is the network link-outage probability of protocol-simulator
	// scenarios (the sim/drops robustness dimension).
	Rate float64 `json:"rate,omitempty"`
	// GST is the epoch at which network partitions heal in
	// protocol-simulator scenarios (the sim/gst heal dimension).
	GST int `json:"gst,omitempty"`
	// Explicit marks fields the caller set on purpose, so WithDefaults
	// keeps an explicit zero instead of substituting the scenario
	// default. It is presence metadata, not a parameter, and it rides
	// the JSON key set rather than appearing as its own key: marshalling
	// emits exactly the fields that are non-zero or marked, and
	// unmarshalling marks exactly the keys present in the document. A
	// fully defaulted Params (WithDefaults) carries FieldAll, so a
	// result's parameter record serializes completely — an explicit
	// rate=0 survives a JSON round trip instead of vanishing into
	// omitempty and decoding back as "use the default".
	Explicit Field `json:"-"`
}

// isZero reports whether a parameter value is zero, comparing with == (so
// -0 counts).
func isZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return v.Float() == 0
	case reflect.String:
		return v.Len() == 0
	}
	return v.Int() == 0
}

// unset reports whether p leaves dimension d to the scenario default.
func (p *Params) unset(d *paramDim, v reflect.Value) bool {
	return isZero(v.Field(d.pi)) && !p.IsExplicit(d.field)
}

// MarshalJSON emits every field that is non-zero or marked explicit, so a
// sparse request stays sparse and a fully specified record stays
// complete. Keys are sorted, as encoding/json sorts a map's, and the bytes
// are those encoding/json writes for them, built in one allocation.
func (p Params) MarshalJSON() ([]byte, error) {
	v := reflect.ValueOf(&p).Elem()
	b := append(make([]byte, 0, 128), '{') // a full record is ~100 bytes
	for _, d := range wireRows {
		if p.unset(d, v) {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), d.key...), '"', ':')
		switch f := v.Field(d.pi); f.Kind() {
		case reflect.Float64:
			x := f.Float()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("engine: params %s = %v has no JSON form", d.key, x)
			}
			b = appendJSONFloat(b, x)
		case reflect.String:
			b = appendJSONString(b, f.String())
		default:
			b = strconv.AppendInt(b, f.Int(), 10)
		}
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends a finite x as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 on, its exponent
// unpadded.
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted. A string of printable ASCII that JSON
// and HTML leave alone, as every mode is, is copied; any other is quoted by
// encoding/json itself, which escapes it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// UnmarshalJSON decodes the document and marks every key present with a
// non-null value as explicitly set — the inverse of MarshalJSON, so round
// trips preserve presence. The documents clients send are read in place
// (decodePlain); any other is one encoding/json pass into wireType: keys
// match as struct fields do (case-insensitively), and unknown keys are
// skipped without being copied.
func (p *Params) UnmarshalJSON(data []byte) error {
	if json.Valid(data) {
		if _, ok := p.decodePlain(data); ok {
			return nil
		}
	}
	w := reflect.New(wireType)
	if err := json.Unmarshal(data, w.Interface()); err != nil {
		return err
	}
	*p = Params{}
	v := reflect.ValueOf(p).Elem()
	for i, d := range wireRows {
		if f := w.Elem().Field(i); !f.IsNil() {
			v.Field(d.pi).Set(f.Elem())
			p.Explicit |= d.field
		}
	}
	return nil
}

// decodePlain decodes the object data opens with, in the form clients and
// MarshalJSON write: canonical keys, each holding a number (an integer,
// within range, for the integer fields) or a string. It reads the values
// in place, without encoding/json's decoder, and reports where the object
// ends; it writes p only when it reports true. data must be valid JSON from
// the object on (a whole document, or a payload holding the object). Any
// other object it leaves to encoding/json, whose reading of such an object
// is the same.
func (p *Params) decodePlain(data []byte) (end int, ok bool) {
	var q Params
	v := reflect.ValueOf(&q).Elem()
	i := skipSpace(data, 0)
	if data[i] != '{' {
		return 0, false
	}
	// Valid JSON: a key is followed by ':', a value by ',' or '}'.
	for i = skipSpace(data, i+1); data[i] != '}'; i = skipSpace(data, i+1) {
		_, j, _ := jsonString(data, i, false)
		var d *paramDim
		for k := range paramDims {
			if string(data[i+1:j-1]) == paramDims[k].key {
				d = &paramDims[k]
			}
		}
		if d == nil {
			return 0, false
		}
		i = skipSpace(data, skipSpace(data, j)+1)
		f := v.Field(d.pi)
		if f.Kind() == reflect.String {
			var s string
			if s, j, ok = jsonString(data, i, true); !ok {
				return 0, false
			}
			f.SetString(s)
		} else {
			for j = i; j < len(data) && strings.IndexByte(",} \t\n\r", data[j]) < 0; j++ {
			}
			if f.Kind() == reflect.Float64 {
				x, err := strconv.ParseFloat(string(data[i:j]), 64)
				if err != nil {
					return 0, false
				}
				f.SetFloat(x)
			} else {
				n, err := strconv.ParseInt(string(data[i:j]), 10, 64)
				if err != nil || f.OverflowInt(n) {
					return 0, false
				}
				f.SetInt(n)
			}
		}
		q.Explicit |= d.field
		if i = skipSpace(data, j); data[i] == '}' {
			break
		}
	}
	*p = q
	return i + 1, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && strings.IndexByte(" \t\n\r", data[i]) >= 0 {
		i++
	}
	return i
}

// jsonString reads the string at i of valid JSON: its value, built only
// when build is set, and the index after its closing quote. Plain printable
// ASCII is copied as it stands; any other string is one token unquoted by
// encoding/json.
func jsonString(data []byte, i int, build bool) (s string, end int, ok bool) {
	if data[i] != '"' {
		return "", i, false
	}
	plain := true
	for end = i + 1; data[end] != '"'; end++ {
		if c := data[end]; c == '\\' {
			plain, end = false, end+1
		} else if c < ' ' || c > '~' {
			plain = false
		}
	}
	switch end++; {
	case !build:
	case plain:
		s = string(data[i+1 : end-1])
	default:
		var u string // its own variable: only this branch moves it to the heap
		return u, end, json.Unmarshal(data[i:end], &u) == nil
	}
	return s, end, true
}

// IsExplicit reports whether the field was marked explicitly set.
func (p Params) IsExplicit(f Field) bool { return p.Explicit&f != 0 }

// MarkExplicit returns p with the given fields marked explicitly set.
func (p Params) MarkExplicit(fields ...Field) Params {
	for _, f := range fields {
		p.Explicit |= f
	}
	return p
}

// MarkFlag marks the dimension a CLI flag named key sets, when zero is a
// real value of it (p0, beta0, rate, gst): a user who passes -rate 0 means
// rate zero. For any other name p is returned unchanged — a zero -n,
// -horizon, -seed or -sample is never a runnable value and keeps meaning
// "scenario default". CLIs call it from flag.Visit.
func (p Params) MarkFlag(key string) Params {
	if d := dimForKey(key); d != nil && d.zero {
		p.Explicit |= d.field
	}
	return p
}

// DecodeParams unmarshals a JSON document into Params; key presence
// marks Explicit (see UnmarshalJSON), which is what lets {"rate": 0}
// mean "rate zero" rather than "scenario default".
func DecodeParams(data []byte) (Params, error) {
	var p Params // left zero on any error
	err := json.Unmarshal(data, &p)
	return p, err
}

// WithDefaults fills every unset field of p from d. A field is unset when
// it is zero-valued AND not marked in p.Explicit. The result is a fully
// specified record, so its mask is FieldAll: every field — explicit
// zeros included — survives serialization, and fully defaulted Params
// compare equal regardless of how their zeros were originally spelled.
func (p Params) WithDefaults(d Params) Params { return p.resolved(d, FieldAll) }

// resolved is WithDefaults over the dimensions in reads, with every other
// dimension zeroed in the same pass; resolve hands a scenario its params
// through it.
func (p Params) resolved(d Params, reads Field) Params {
	v, dv := reflect.ValueOf(&p).Elem(), reflect.ValueOf(&d).Elem()
	for _, d := range paramDims {
		read := reads&d.field != 0
		if read && !p.unset(&d, v) {
			continue
		}
		// Set by kind: Value.Set would move both records to the heap.
		switch f, def := v.Field(d.pi), dv.Field(d.pi); {
		case !read:
			f.SetZero()
		case f.Kind() == reflect.Float64:
			f.SetFloat(def.Float())
		case f.Kind() == reflect.String:
			f.SetString(def.String())
		default:
			f.SetInt(def.Int())
		}
	}
	p.Explicit = FieldAll
	return p
}

// Columns calls fn, in table order, with the key and rendered value of
// every dimension a report shows, and whether this record shows it: p0
// always, the others when non-zero; sample never appears. String and the
// sweep report render parameters through it.
func (p Params) Columns(fn func(key, value string, shown bool)) {
	v := reflect.ValueOf(&p).Elem()
	for _, d := range paramDims {
		if d.hidden {
			continue
		}
		var s string
		switch f := v.Field(d.pi); f.Kind() {
		case reflect.Float64:
			s = strconv.FormatFloat(f.Float(), 'g', 4, 64) // fmt's %.4g
		case reflect.String:
			s = f.String()
		default:
			s = strconv.FormatInt(f.Int(), 10)
		}
		fn(d.key, s, d.always || !isZero(v.Field(d.pi)))
	}
}

// String renders the shown parameters compactly ("p0=0.5 beta0=0.2 …").
func (p Params) String() string {
	var parts []string
	p.Columns(func(key, value string, shown bool) {
		if shown {
			parts = append(parts, key+"="+value)
		}
	})
	return strings.Join(parts, " ")
}
