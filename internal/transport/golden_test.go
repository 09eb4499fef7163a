package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/moara/moara/internal/core"
)

// goldenFile pins the bytes of codec version 1: one line per columnar
// wire sample, bare and inside a two-item BatchMsg, each holding the
// sample's type and the hex of its core.AppendMessage encoding. Tag-0
// gob bodies are not part of the frozen layouts and are left out.
const goldenFile = "testdata/wire_v1.golden"

// goldenLines encodes every columnar wire sample the way goldenFile
// lists it.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, m := range wireSamples(t) {
		bare, err := core.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if bare[0] == 0 {
			continue
		}
		batched, err := core.AppendMessage(nil, core.BatchMsg{Items: []any{m, m}})
		if err != nil {
			t.Fatalf("%T/batched: encode: %v", m, err)
		}
		lines = append(lines,
			fmt.Sprintf("%T %x", m, bare),
			fmt.Sprintf("%T %x", core.BatchMsg{}, batched))
	}
	return lines
}

// TestWireLayoutsGolden is the compatibility rule of codec.go made
// executable: within a codec version no layout may move a byte. Every
// sample must encode to its golden line, and every golden frame must
// decode and re-encode to its own bytes. A layout change that is meant
// bumps wireVersion and starts a new golden file.
func TestWireLayoutsGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d columnar samples, %s has %d lines", len(got), goldenFile, len(want))
	}
	for i, line := range want {
		if got[i] != line {
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, got[i], line)
		}
		typ, hexed, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		m, rest, err := core.ReadMessage(frame)
		if err != nil || len(rest) != 0 {
			t.Errorf("line %d (%s): decode: %v (%d trailing)", i+1, typ, err, len(rest))
			continue
		}
		if again, err := core.AppendMessage(nil, m); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("line %d (%s): decode and re-encode gives %x (err %v)", i+1, typ, again, err)
		}
	}
}
