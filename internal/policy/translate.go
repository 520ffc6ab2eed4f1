package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/ppdp/ppdp/internal/privacy"
)

// ErrNoCriteria is returned by FromFlat when the flat parameters enable no
// criterion at all (k, l and t all disabled). FromFlatFor treats it as "no
// policy", so the algorithm's own validation produces its natural error.
var ErrNoCriteria = errors.New("policy: flat parameters enable no privacy criterion")

// Flat is the legacy flat-parameter view of a policy: the k/l/c/t/diversity/
// sensitive/suppression scalar bag the pre-policy API exposed. The flat
// surface is deprecated but still accepted at the service and CLI edges,
// which translate it once with FromFlatFor; the pipeline itself only ever
// sees policies.
type Flat struct {
	// K enables k-anonymity when positive.
	K int
	// L enables the l-diversity family when greater than 1.
	L int
	// DiversityMode selects the family member: "distinct" (also the empty
	// default), "entropy" or "recursive".
	DiversityMode string
	// C is the recursive (c,l)-diversity constant (0 means the default 3).
	C float64
	// T enables t-closeness when positive.
	T float64
	// OrderedSensitive selects the ordered-distance EMD for t-closeness.
	OrderedSensitive bool
	// Sensitive names the sensitive attribute for the attribute-linkage
	// criteria ("" means the pipeline's resolved default).
	Sensitive string
	// MaxSuppression is the suppression budget (0 disables).
	MaxSuppression float64
}

// Flat diversity-mode names.
const (
	FlatDistinct  = "distinct"
	FlatEntropy   = "entropy"
	FlatRecursive = "recursive"
)

// FromFlat translates flat parameters into their canonical policy: K>0 adds
// k-anonymity, L>1 adds the selected l-diversity variant, T>0 adds
// t-closeness, and a positive MaxSuppression becomes the suppression budget.
// The zero thresholds mirror the flat API's "zero disables" contract exactly,
// so a flat request and its translation enforce the same criteria.
func FromFlat(f Flat) (*Policy, error) {
	p := &Policy{Version: Version}
	if f.K > 0 {
		p.Criteria = append(p.Criteria, Criterion{Type: KAnonymity, K: f.K})
	}
	if f.L > 1 {
		switch f.DiversityMode {
		case FlatDistinct, "":
			p.Criteria = append(p.Criteria, Criterion{Type: DistinctLDiversity, L: float64(f.L), Sensitive: f.Sensitive})
		case FlatEntropy:
			p.Criteria = append(p.Criteria, Criterion{Type: EntropyLDiversity, L: float64(f.L), Sensitive: f.Sensitive})
		case FlatRecursive:
			p.Criteria = append(p.Criteria, Criterion{Type: RecursiveCLDiversity, L: float64(f.L), C: f.C, Sensitive: f.Sensitive})
		default:
			return nil, fmt.Errorf("policy: unknown diversity mode %q (known: distinct, entropy, recursive)", f.DiversityMode)
		}
	}
	if f.T > 0 {
		p.Criteria = append(p.Criteria, Criterion{Type: TCloseness, T: f.T, Sensitive: f.Sensitive, Ordered: f.OrderedSensitive})
	}
	if len(p.Criteria) == 0 {
		return nil, ErrNoCriteria
	}
	if f.MaxSuppression > 0 {
		p.Suppression = &Suppression{MaxFraction: f.MaxSuppression}
	}
	return p.Canonical()
}

// FromFlatFor translates flat parameters for an algorithm that enforces the
// supported criterion types, keeping the legacy flat contract. Range checks
// on the outside input come first (l >= 0, t and the suppression budget in
// [0,1]); the recursive c defaults to 3.
//
// declared is FromFlat's full translation: the policy the release echoes and
// is measured against, so a criterion the algorithm cannot enforce is still
// verified ("trust but verify"). enforced is the policy the algorithm runs:
// declared restricted to the supported types, since flat parameters an
// algorithm does not read have always been ignored at run time (the
// suppression budget is kept; it is advisory where unused). One exception:
// an algorithm that enforces distinct l-diversity but not the requested
// variant (Anatomy) reads the flat l as its bucket size whatever the
// diversity mode says, so the variant becomes a distinct-l-diversity
// criterion with the same l.
//
// When the algorithm enforces every declared criterion, enforced and
// declared are the same pointer. enforced is nil when the algorithm enforces
// none of them, and both are nil when the parameters enable no criterion at
// all; either way the algorithm's own validation then reports the parameter
// it is missing.
func FromFlatFor(f Flat, supported []string) (enforced, declared *Policy, err error) {
	if f.L < 0 || f.T < 0 || f.T > 1 {
		return nil, nil, fmt.Errorf("policy: flat parameters out of range: l=%d t=%v", f.L, f.T)
	}
	if f.MaxSuppression < 0 || f.MaxSuppression > 1 {
		return nil, nil, fmt.Errorf("policy: flat parameters out of range: max_suppression=%v", f.MaxSuppression)
	}
	if f.DiversityMode == FlatRecursive && f.C <= 0 {
		f.C = 3
	}
	declared, err = FromFlat(f)
	if errors.Is(err, ErrNoCriteria) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	supports := func(typ string) bool { return slices.Contains(supported, typ) }
	enforced = &Policy{Version: declared.Version, Suppression: declared.Suppression}
	for _, c := range declared.Criteria {
		switch {
		case supports(c.Type):
			enforced.Criteria = append(enforced.Criteria, c)
		case (c.Type == EntropyLDiversity || c.Type == RecursiveCLDiversity) && supports(DistinctLDiversity):
			enforced.Criteria = append(enforced.Criteria, Criterion{Type: DistinctLDiversity, L: c.L, Sensitive: c.Sensitive})
		}
	}
	switch {
	case len(enforced.Criteria) == 0:
		return nil, declared, nil
	case slices.Equal(enforced.CriterionTypes(), declared.CriterionTypes()):
		return declared, declared, nil
	}
	return enforced, declared, nil
}

// KAnonymityK returns the class-size bound the policy implies — the largest
// k declared by a k-anonymity or (α,k)-anonymity criterion, or 0 when the
// policy carries neither. It is the value the engine Spec's K field
// expects: a policy declaring only alpha-k-anonymity still bounds every
// class at its k.
func (p *Policy) KAnonymityK() int {
	k := 0
	for _, c := range p.Criteria {
		if (c.Type == KAnonymity || c.Type == AlphaKAnonymity) && c.K > k {
			k = c.K
		}
	}
	return k
}

// BucketL returns the distinct-l-diversity criterion's l, or 0 when the
// policy carries none — Anatomy's bucket size.
func (p *Policy) BucketL() int {
	if c, ok := p.Find(DistinctLDiversity); ok {
		return int(c.L)
	}
	return 0
}

// SuppressionBudget returns the suppression budget (0 when none).
func (p *Policy) SuppressionBudget() float64 {
	if p.Suppression != nil {
		return p.Suppression.MaxFraction
	}
	return 0
}

// ResolveSensitive returns a copy with every empty criterion-level sensitive
// attribute filled from the default. Criteria that already name one keep it.
func (p *Policy) ResolveSensitive(def string) *Policy {
	out := p.Clone()
	for i := range out.Criteria {
		if out.Criteria[i].Type != KAnonymity && out.Criteria[i].Sensitive == "" {
			out.Criteria[i].Sensitive = def
		}
	}
	return out
}

// Checker maps the criterion onto the privacy model that evaluates it on one
// release table, against the criterion's own sensitive attribute (see
// ResolveSensitive). It is the one mapping the algorithms' enforcement and
// the release measurements share. It returns nil for m-invariance, which
// guards a release history rather than one table's classes and is checked by
// the republish pipeline, and for an unknown type.
func (c Criterion) Checker() privacy.Criterion {
	switch c.Type {
	case KAnonymity:
		return privacy.KAnonymity{K: c.K}
	case AlphaKAnonymity:
		return privacy.AlphaKAnonymity{K: c.K, Alpha: c.Alpha, Sensitive: c.Sensitive}
	case DistinctLDiversity:
		return privacy.DistinctLDiversity{L: int(c.L), Sensitive: c.Sensitive}
	case EntropyLDiversity:
		return privacy.EntropyLDiversity{L: c.L, Sensitive: c.Sensitive}
	case RecursiveCLDiversity:
		return privacy.RecursiveCLDiversity{C: cmp.Or(c.C, 3), L: int(c.L), Sensitive: c.Sensitive}
	case TCloseness:
		return privacy.TCloseness{T: c.T, Sensitive: c.Sensitive, Ordered: c.Ordered}
	}
	return nil
}

// AttributeCriteria instantiates the policy's attribute-linkage criteria —
// everything beyond plain k-anonymity and m-invariance — through Checker,
// with empty sensitive attributes resolved to def. Criteria that need a
// sensitive attribute fail when neither they nor def name one.
func (p *Policy) AttributeCriteria(def string) ([]privacy.Criterion, error) {
	var out []privacy.Criterion
	for _, c := range p.ResolveSensitive(def).Criteria {
		if c.Type == KAnonymity || c.Type == MInvariance {
			continue
		}
		if c.Sensitive == "" {
			return nil, fmt.Errorf("policy: %s requires a sensitive attribute", c.Type)
		}
		ck := c.Checker()
		if ck == nil {
			return nil, fmt.Errorf("policy: unknown criterion type %q", c.Type)
		}
		out = append(out, ck)
	}
	return out, nil
}
