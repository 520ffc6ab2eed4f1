package dataset

import "fmt"

// Kind describes the disclosure role an attribute plays during publishing.
type Kind int

const (
	// Insensitive attributes carry no re-identification or disclosure risk
	// and are released unchanged.
	Insensitive Kind = iota
	// Identifier attributes (name, SSN, phone) uniquely identify a person
	// and must be removed before release.
	Identifier
	// QuasiIdentifier attributes (age, zip, sex, ...) do not identify a
	// person on their own but can be linked with external data.
	QuasiIdentifier
	// Sensitive attributes (diagnosis, salary, ...) are the values an
	// adversary must not be able to associate with an individual.
	Sensitive
)

// String returns the conventional lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Insensitive:
		return "insensitive"
	case Identifier:
		return "identifier"
	case QuasiIdentifier:
		return "quasi-identifier"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type describes how attribute values are interpreted.
type Type int

const (
	// Categorical values are opaque labels compared for equality and
	// generalized through a value generalization hierarchy.
	Categorical Type = iota
	// Numeric values parse as floating point numbers and may additionally
	// be generalized into intervals.
	Numeric
)

// String returns the conventional lowercase name of the type.
func (t Type) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes a single column of a table.
type Attribute struct {
	// Name is the column name; it must be unique within a schema.
	Name string
	// Kind is the disclosure role of the column.
	Kind Kind
	// Type is the value interpretation of the column.
	Type Type
}

// String implements fmt.Stringer.
func (a Attribute) String() string {
	return fmt.Sprintf("%s(%s,%s)", a.Name, a.Type, a.Kind)
}
