package server

import (
	"maps"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// FuzzParseAPIKeys feeds arbitrary bytes to the api-keys file parser.
// Nothing may panic. An accepted map is non-empty, no key or tenant is empty
// or holds whitespace, and writing the map back as "<key> <tenant>" lines
// parses to the same map.
func FuzzParseAPIKeys(f *testing.F) {
	f.Add([]byte(apiKeysValid))
	for _, input := range apiKeysInvalid {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := ParseAPIKeys(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(keys) == 0 {
			t.Fatal("accepted an empty key map")
		}
		sorted := make([]string, 0, len(keys))
		for key := range keys {
			sorted = append(sorted, key)
		}
		sort.Strings(sorted)
		var file strings.Builder
		for _, key := range sorted {
			tenant := keys[key]
			for _, s := range []string{key, tenant} {
				if s == "" || strings.IndexFunc(s, unicode.IsSpace) >= 0 {
					t.Fatalf("accepted key %q -> tenant %q", key, tenant)
				}
			}
			file.WriteString(key + " " + tenant + "\n")
		}
		again, err := ParseAPIKeys(strings.NewReader(file.String()))
		if err != nil {
			t.Fatalf("written-back map does not parse: %v\n%s", err, file.String())
		}
		if !maps.Equal(keys, again) {
			t.Fatalf("round trip changed the map:\n%v\n%v", keys, again)
		}
	})
}
