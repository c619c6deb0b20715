package cliflags

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) *Sim {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := RegisterSim(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSizes(t *testing.T) {
	cases := []struct {
		name           string
		args           []string
		budget, warmup uint64
	}{
		{"defaults", nil, 100, 50},
		{"quick", []string{"-quick"}, 10, 5},
		{"explicit", []string{"-budget", "7", "-warmup", "3"}, 7, 3},
		{"explicit beats quick", []string{"-quick", "-budget", "7"}, 7, 5},
	}
	for _, c := range cases {
		s := parse(t, c.args...)
		if b, w := s.Sizes(100, 50, 10, 5); b != c.budget || w != c.warmup {
			t.Errorf("%s: Sizes = %d/%d, want %d/%d", c.name, b, w, c.budget, c.warmup)
		}
	}
}

func TestSplitProgs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"gcc", []string{"gcc"}},
		{"gcc,swim", []string{"gcc", "swim"}},
		{" gcc , swim ,", []string{"gcc", "swim"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := SplitProgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitProgs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRegisterServe(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := RegisterServe(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := Serve{Addr: "127.0.0.1:8471", Workers: 2, Queue: 8,
		CacheEntries: 512, SimParallel: 1, DrainTimeout: 30 * time.Second}
	if *s != want {
		t.Fatalf("defaults = %+v, want %+v", *s, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	s = RegisterServe(fs)
	if err := fs.Parse([]string{"-addr", ":0", "-workers", "4", "-queue", "-1",
		"-cache-entries", "16", "-sim-parallel", "8", "-drain-timeout", "5s"}); err != nil {
		t.Fatal(err)
	}
	want = Serve{Addr: ":0", Workers: 4, Queue: -1,
		CacheEntries: 16, SimParallel: 8, DrainTimeout: 5 * time.Second}
	if *s != want {
		t.Fatalf("parsed = %+v, want %+v", *s, want)
	}
}
