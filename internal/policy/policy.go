// Package policy defines the declarative privacy-policy document of the
// release pipeline: a versioned, JSON-serializable description of the privacy
// criteria a release must satisfy (k-anonymity, (α,k)-anonymity, the
// l-diversity family, t-closeness) plus the suppression budget, composable as
// a list of typed criterion objects instead of a flat bag of scalars.
//
// The document is the API boundary's source of truth. It decodes strictly —
// unknown criterion types, unknown fields and duplicate criteria are rejected
// rather than silently ignored — and canonicalizes to a stable form (fixed
// criterion order, defaults filled, version pinned), so the same policy
// always encodes to the same bytes: clients can diff the canonical echo of a
// request against what they sent, and stored policies compare by content.
//
// Translation to and from the legacy flat parameters (k/l/c/t/diversity/
// sensitive/suppression) lives in translate.go: every flat request maps onto
// exactly one canonical policy, and every flat-expressible policy maps back,
// which is what lets the deprecated flat surface ride on the policy pipeline
// without behavior change.
package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Version is the current policy document version. Documents that omit the
// version default to it; any other value is rejected so a future v2 can
// change semantics without silently misreading v1 consumers.
const Version = 1

// Criterion type names — the "type" discriminator of one criterion object.
const (
	// KAnonymity bounds record linkage: every equivalence class has at
	// least k records. Fields: k.
	KAnonymity = "k-anonymity"
	// AlphaKAnonymity is (α,k)-anonymity: k-anonymity plus a cap α on the
	// relative frequency of any sensitive value inside a class. Fields: k,
	// alpha, sensitive.
	AlphaKAnonymity = "alpha-k-anonymity"
	// DistinctLDiversity requires l distinct sensitive values per class.
	// Fields: l, sensitive.
	DistinctLDiversity = "distinct-l-diversity"
	// EntropyLDiversity requires per-class sensitive entropy of at least
	// log(l); l may be fractional. Fields: l, sensitive.
	EntropyLDiversity = "entropy-l-diversity"
	// RecursiveCLDiversity is recursive (c,l)-diversity. Fields: l, c,
	// sensitive.
	RecursiveCLDiversity = "recursive-cl-diversity"
	// TCloseness bounds the earth mover's distance between each class's
	// sensitive distribution and the table's. Fields: t, sensitive, ordered.
	TCloseness = "t-closeness"
	// MInvariance is Xiao & Tao's m-invariance for sequential re-publication:
	// every record keeps a fixed m-value sensitive signature across releases
	// of the same table, padded with counterfeits when needed, so
	// intersecting consecutive releases never narrows an individual below m
	// sensitive values. It guards a release *history*, not a single table,
	// and needs a stable per-record identity column. Fields: m, id,
	// sensitive.
	MInvariance = "m-invariance"
)

// typeRank fixes the canonical criterion order: record-linkage models first,
// then the l-diversity family, then t-closeness.
var typeRank = map[string]int{
	KAnonymity:           0,
	AlphaKAnonymity:      1,
	DistinctLDiversity:   2,
	EntropyLDiversity:    3,
	RecursiveCLDiversity: 4,
	TCloseness:           5,
	MInvariance:          6,
}

// criterionFields lists, per criterion type, the parameter fields the type
// reads. Strict decoding rejects any other field, so a typo ("sensative") or
// a parameter pasted onto the wrong criterion ("t" on k-anonymity) surfaces
// as an error instead of silently weakening the policy.
var criterionFields = map[string]map[string]bool{
	KAnonymity:           {"k": true},
	AlphaKAnonymity:      {"k": true, "alpha": true, "sensitive": true},
	DistinctLDiversity:   {"l": true, "sensitive": true},
	EntropyLDiversity:    {"l": true, "sensitive": true},
	RecursiveCLDiversity: {"l": true, "c": true, "sensitive": true},
	TCloseness:           {"t": true, "sensitive": true, "ordered": true},
	MInvariance:          {"m": true, "id": true, "sensitive": true},
}

// Types returns every known criterion type in canonical order.
func Types() []string {
	out := make([]string, 0, len(typeRank))
	for t := range typeRank {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return typeRank[out[i]] < typeRank[out[j]] })
	return out
}

// Fields returns the parameter fields a criterion type reads (sorted), or
// nil for an unknown type — the schema reference docs/API.md is generated
// from.
func Fields(typ string) []string {
	fields, ok := criterionFields[typ]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(fields))
	for f := range fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Criterion is one typed privacy criterion of a policy. Type selects the
// model; the remaining fields are the union of every model's parameters, and
// each type reads only its own (enforced by the strict decoder and Validate).
type Criterion struct {
	// Type is one of the criterion type constants.
	Type string `json:"type"`
	// K is the class-size bound of k-anonymity and (α,k)-anonymity.
	K int `json:"k,omitempty"`
	// Alpha is the (α,k)-anonymity frequency cap in (0,1].
	Alpha float64 `json:"alpha,omitempty"`
	// L is the diversity parameter; integral for the distinct and recursive
	// variants, possibly fractional for entropy.
	L float64 `json:"l,omitempty"`
	// C is the recursive (c,l)-diversity constant (default 3).
	C float64 `json:"c,omitempty"`
	// T is the t-closeness bound in (0,1].
	T float64 `json:"t,omitempty"`
	// Sensitive names the sensitive attribute the criterion guards; empty
	// means the pipeline's resolved default (the schema's first sensitive
	// column, or the request-level override).
	Sensitive string `json:"sensitive,omitempty"`
	// Ordered selects the ordered-distance EMD for t-closeness.
	Ordered bool `json:"ordered,omitempty"`
	// M is the m-invariance signature size: every record's bucket exposes at
	// least m distinct sensitive values, fixed across releases.
	M int `json:"m,omitempty"`
	// ID names the stable per-record identity column m-invariance tracks
	// records by across releases.
	ID string `json:"id,omitempty"`
}

// UnmarshalJSON decodes one criterion strictly: the type must be known and
// every other key must be a field that type reads.
func (c *Criterion) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("policy: criterion: %w", err)
	}
	typRaw, ok := raw["type"]
	if !ok {
		return fmt.Errorf("policy: criterion is missing the required \"type\" field")
	}
	var typ string
	if err := json.Unmarshal(typRaw, &typ); err != nil {
		return fmt.Errorf("policy: criterion type: %w", err)
	}
	fields, ok := criterionFields[typ]
	if !ok {
		return fmt.Errorf("policy: unknown criterion type %q (known: %v)", typ, Types())
	}
	for key := range raw {
		if key == "type" {
			continue
		}
		if !fields[key] {
			return fmt.Errorf("policy: criterion %q: unknown field %q", typ, key)
		}
	}
	// The shadow type drops the custom unmarshaler so the typed fields decode
	// through the standard path (wrong value types still error).
	type shadow Criterion
	var s shadow
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("policy: criterion %q: %w", typ, err)
	}
	*c = Criterion(s)
	return nil
}

// Validate checks the criterion's parameters for its type.
func (c Criterion) Validate() error {
	switch c.Type {
	case KAnonymity:
		if c.K < 1 {
			return fmt.Errorf("policy: %s: k must be at least 1 (got %d)", c.Type, c.K)
		}
	case AlphaKAnonymity:
		if c.K < 1 {
			return fmt.Errorf("policy: %s: k must be at least 1 (got %d)", c.Type, c.K)
		}
		if c.Alpha <= 0 || c.Alpha > 1 {
			return fmt.Errorf("policy: %s: alpha must be in (0,1] (got %v)", c.Type, c.Alpha)
		}
	case DistinctLDiversity:
		if c.L < 2 || c.L != float64(int(c.L)) {
			return fmt.Errorf("policy: %s: l must be an integer of at least 2 (got %v)", c.Type, c.L)
		}
	case EntropyLDiversity:
		if c.L <= 1 {
			return fmt.Errorf("policy: %s: l must be greater than 1 (got %v)", c.Type, c.L)
		}
	case RecursiveCLDiversity:
		if c.L < 2 || c.L != float64(int(c.L)) {
			return fmt.Errorf("policy: %s: l must be an integer of at least 2 (got %v)", c.Type, c.L)
		}
		if c.C < 0 {
			return fmt.Errorf("policy: %s: c must be positive (got %v)", c.Type, c.C)
		}
	case TCloseness:
		if c.T <= 0 || c.T > 1 {
			return fmt.Errorf("policy: %s: t must be in (0,1] (got %v)", c.Type, c.T)
		}
	case MInvariance:
		if c.M < 2 {
			return fmt.Errorf("policy: %s: m must be at least 2 (got %d)", c.Type, c.M)
		}
		if c.ID == "" {
			return fmt.Errorf("policy: %s: an id column is required to track records across releases", c.Type)
		}
	default:
		return fmt.Errorf("policy: unknown criterion type %q (known: %v)", c.Type, Types())
	}
	return nil
}

// Describe renders the criterion compactly, e.g. "k-anonymity(k=10)" or
// "t-closeness(t=0.2, sensitive=disease)".
func (c Criterion) Describe() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s(", c.Type)
	sep := ""
	emit := func(format string, args ...any) {
		buf.WriteString(sep)
		fmt.Fprintf(&buf, format, args...)
		sep = ", "
	}
	switch c.Type {
	case KAnonymity:
		emit("k=%d", c.K)
	case AlphaKAnonymity:
		emit("alpha=%v", c.Alpha)
		emit("k=%d", c.K)
	case DistinctLDiversity, EntropyLDiversity:
		emit("l=%v", c.L)
	case RecursiveCLDiversity:
		emit("c=%v", c.C)
		emit("l=%v", c.L)
	case TCloseness:
		emit("t=%v", c.T)
		if c.Ordered {
			emit("ordered")
		}
	case MInvariance:
		emit("m=%d", c.M)
		emit("id=%s", c.ID)
	}
	if c.Sensitive != "" {
		emit("sensitive=%s", c.Sensitive)
	}
	buf.WriteString(")")
	return buf.String()
}

// Suppression is the policy's record-suppression budget.
type Suppression struct {
	// MaxFraction bounds suppressed records as a fraction of the table in
	// [0,1]. Honored by the algorithms that declare a max_suppression
	// parameter (datafly, samarati); advisory elsewhere.
	MaxFraction float64 `json:"max_fraction"`
}

// Policy is one declarative privacy-policy document: the versioned list of
// criteria a release must satisfy plus the suppression budget. The zero
// value is not valid; build policies with composition, FromFlat, or Parse.
type Policy struct {
	// Version is the document version (see the Version constant).
	Version int `json:"version"`
	// Criteria lists the privacy criteria, at most one per type.
	Criteria []Criterion `json:"criteria"`
	// Suppression is the optional suppression budget.
	Suppression *Suppression `json:"suppression,omitempty"`
}

// Parse strictly decodes a policy document and returns its canonical form:
// unknown top-level fields, unknown criterion types/fields, duplicate
// criteria and out-of-range parameters are all errors.
func Parse(data []byte) (*Policy, error) {
	return ParseReader(bytes.NewReader(data))
}

// ParseReader is Parse over a stream.
func ParseReader(r io.Reader) (*Policy, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("policy: decode: %w", err)
	}
	// A second document in the stream is garbage, not a policy file.
	if dec.More() {
		return nil, fmt.Errorf("policy: decode: trailing data after the policy document")
	}
	return p.Canonical()
}

// Validate checks the document: supported version, at least one criterion,
// no duplicate criterion types, every criterion and the suppression budget
// in range.
func (p *Policy) Validate() error {
	if p.Version != 0 && p.Version != Version {
		return fmt.Errorf("policy: unsupported version %d (this build understands version %d)", p.Version, Version)
	}
	if len(p.Criteria) == 0 {
		return fmt.Errorf("policy: at least one criterion is required")
	}
	seen := make(map[string]bool, len(p.Criteria))
	for _, c := range p.Criteria {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Type] {
			return fmt.Errorf("policy: duplicate criterion %q", c.Type)
		}
		seen[c.Type] = true
	}
	if p.Suppression != nil {
		if f := p.Suppression.MaxFraction; f < 0 || f > 1 {
			return fmt.Errorf("policy: suppression max_fraction must be in [0,1] (got %v)", f)
		}
	}
	return nil
}

// Canonical validates the document and returns its canonical form: version
// pinned, criteria sorted into the fixed type order, the recursive c default
// filled, and a zero suppression budget dropped. The receiver is unchanged.
func (p *Policy) Canonical() (*Policy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := p.Clone()
	out.Version = Version
	for i := range out.Criteria {
		if out.Criteria[i].Type == RecursiveCLDiversity && out.Criteria[i].C == 0 {
			out.Criteria[i].C = 3
		}
	}
	sort.SliceStable(out.Criteria, func(i, j int) bool {
		return typeRank[out.Criteria[i].Type] < typeRank[out.Criteria[j].Type]
	})
	if out.Suppression != nil && out.Suppression.MaxFraction == 0 {
		out.Suppression = nil
	}
	return out, nil
}

// Clone returns a deep copy.
func (p *Policy) Clone() *Policy {
	out := &Policy{Version: p.Version, Criteria: append([]Criterion(nil), p.Criteria...)}
	if p.Suppression != nil {
		s := *p.Suppression
		out.Suppression = &s
	}
	return out
}

// Encode renders the canonical form as indented JSON (trailing newline
// included): the stable wire and file representation of the policy.
func (p *Policy) Encode() ([]byte, error) {
	canon, err := p.Canonical()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(canon, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Equal reports whether two policies have the same canonical form. Invalid
// policies are equal to nothing, including themselves.
func (p *Policy) Equal(q *Policy) bool {
	if p == nil || q == nil {
		return p == q
	}
	a, err := p.Encode()
	if err != nil {
		return false
	}
	b, err := q.Encode()
	if err != nil {
		return false
	}
	return bytes.Equal(a, b)
}

// Describe renders the policy as a compact one-line summary, e.g.
// "k-anonymity(k=10) + t-closeness(t=0.2)".
func (p *Policy) Describe() string {
	var buf bytes.Buffer
	for i, c := range p.Criteria {
		if i > 0 {
			buf.WriteString(" + ")
		}
		buf.WriteString(c.Describe())
	}
	if p.Suppression != nil && p.Suppression.MaxFraction > 0 {
		fmt.Fprintf(&buf, " [suppress<=%v]", p.Suppression.MaxFraction)
	}
	return buf.String()
}

// Find returns the criterion of the given type, if present.
func (p *Policy) Find(typ string) (Criterion, bool) {
	for _, c := range p.Criteria {
		if c.Type == typ {
			return c, true
		}
	}
	return Criterion{}, false
}

// Has reports whether a criterion of the given type is present.
func (p *Policy) Has(typ string) bool {
	_, ok := p.Find(typ)
	return ok
}

// CriterionTypes returns the types present, in the policy's order.
func (p *Policy) CriterionTypes() []string {
	out := make([]string, len(p.Criteria))
	for i, c := range p.Criteria {
		out[i] = c.Type
	}
	return out
}
