package bundle

import (
	"bytes"
	"encoding/json"
	"testing"

	"rewire/internal/adl"
	"rewire/internal/config"
)

// FuzzLoadMapping checks Unmarshal on arbitrary bytes: it returns an
// error or a mapping, never panics, and a mapping it accepts generates
// a configuration and marshals back to the input's document (with the
// architecture text in Format's canonical form). The seed corpus,
// testdata/fuzz/FuzzLoadMapping, holds saved mappings and hand-edited
// hostile ones. Run it with
//
//	go test -run '^$' -fuzz '^FuzzLoadMapping$' -fuzztime 30s ./internal/bundle
func FuzzLoadMapping(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if _, err := config.Generate(m); err != nil {
			t.Fatalf("accepted bundle does not generate a configuration: %v", err)
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted bundle does not marshal: %v", err)
		}
		in, back := decode(t, data), decode(t, out)
		in.Arch = adl.Format(m.Arch)
		if want, got := canonical(t, in), canonical(t, back); !bytes.Equal(want, got) {
			t.Fatalf("Marshal does not reproduce the document:\n%s\nbecame\n%s", want, got)
		}
	})
}

func decode(t *testing.T, data []byte) Document {
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("bundle does not decode: %v", err)
	}
	return d
}

// canonical renders a document in one JSON form, in which an empty list
// and a missing one are the same.
func canonical(t *testing.T, d Document) []byte {
	if len(d.Places) == 0 {
		d.Places = nil
	}
	if len(d.Routes) == 0 {
		d.Routes = nil
	}
	if len(d.Ports) == 0 {
		d.Ports = nil
	}
	if len(d.Graph.Nodes) == 0 {
		d.Graph.Nodes = nil
	}
	if len(d.Graph.Edges) == 0 {
		d.Graph.Edges = nil
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
