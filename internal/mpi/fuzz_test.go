package mpi

import (
	"bytes"
	"io"
	"testing"
)

// FuzzFrame feeds the frame reader arbitrary byte streams. Every input
// either fails to read — an over-cap length, a short header or body — or
// is a sequence of whole frames whose re-encoding is byte-equal to it.
// Seeds live in testdata/fuzz/FuzzFrame.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var again bytes.Buffer
		for {
			tag, body, err := ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if err := WriteFrame(&again, tag, body); err != nil {
				t.Fatalf("re-encoding a frame the reader accepted: %v", err)
			}
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("frames re-encode to %x, input was %x", again.Bytes(), data)
		}
	})
}
