// Fuzz battery for the RMTBIN1 loader: ReadImage consumes untrusted bytes
// (rmtasm -bin loads user files), so no input may panic it, hang it, or
// make it allocate unboundedly — corrupted headers, truncations and
// undecodable words must all come back as errors. The test lives in an
// external package so the seed corpus can be built from the registered
// kernels via internal/program without an import cycle.
package isa_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/program"
)

// kernelImages serialises every registered kernel plus a handful of
// generated ones — the well-formed half of the corpus. The generated
// images exercise loader paths the curated kernels cannot: larger data
// segments (the LCG window) and denser label-resolved branch forests.
func kernelImages(f *testing.F) [][]byte {
	var out [][]byte
	for _, name := range program.Names() {
		prog := program.MustBuild(name)
		var buf bytes.Buffer
		if err := isa.WriteImage(&buf, prog); err != nil {
			f.Fatalf("serialise %s: %v", name, err)
		}
		out = append(out, buf.Bytes())
	}
	for _, seed := range progen.CorpusSeeds(0xC0FFEE, 6) {
		var buf bytes.Buffer
		if err := isa.WriteImage(&buf, progen.Generate(seed).Prog); err != nil {
			f.Fatalf("serialise gen:%d: %v", seed, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

func FuzzLoadImage(f *testing.F) {
	images := kernelImages(f)
	for _, img := range images {
		f.Add(img)
	}
	// Adversarial seeds steering the fuzzer at each validation branch.
	f.Add([]byte{})                           // empty
	f.Add([]byte("RMTBIN1\x00"))              // magic only, truncated header
	f.Add([]byte("NOTANIMG________epilogue")) // bad magic
	if len(images) > 0 {
		img := images[0]
		f.Add(img[:len(img)/2]) // truncated mid-code
		huge := append([]byte{}, img...)
		binary.LittleEndian.PutUint64(huge[24:], 1<<40) // implausible code length
		f.Add(huge)
		flipped := append([]byte{}, img...)
		if len(flipped) > 40 {
			flipped[47] ^= 0xFF // corrupt a code word's opcode byte
		}
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.ReadImage(bytes.NewReader(data), "fuzz")
		if err != nil {
			return // rejected: exactly what corrupt input should get
		}
		// Accepted images must be internally consistent and survive a
		// write/reload round trip with identical bytes.
		if uint64(len(p.Code)) > 1<<24 {
			t.Fatalf("accepted implausible code length %d", len(p.Code))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an image that fails Validate: %v", err)
		}
		var rt bytes.Buffer
		if err := isa.WriteImage(&rt, p); err != nil {
			t.Fatalf("accepted image did not re-serialise: %v", err)
		}
		p2, err := isa.ReadImage(bytes.NewReader(rt.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("round-tripped image did not reload: %v", err)
		}
		var rt2 bytes.Buffer
		if err := isa.WriteImage(&rt2, p2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt.Bytes(), rt2.Bytes()) {
			t.Fatal("write/reload round trip is not a fixed point")
		}
	})
}
