package protocol

import (
	"cmp"
	"math"
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultConfigPaperOperatingPoint(t *testing.T) {
	c := DefaultConfig()
	if c.Quorum != 10 {
		t.Errorf("quorum %d, want 10", c.Quorum)
	}
	if c.InnerCircle != 2*c.Quorum {
		t.Errorf("inner circle %d, want twice the quorum", c.InnerCircle)
	}
	if c.MaxDisagree != 3 {
		t.Errorf("landslide margin %d, want 3", c.MaxDisagree)
	}
	if c.PollInterval != 90*24*time.Hour {
		t.Errorf("poll interval %v, want 3 months", c.PollInterval)
	}
	if c.DropUnknown != 0.90 || c.DropDebt != 0.80 {
		t.Errorf("drop probabilities %v/%v, want 0.90/0.80", c.DropUnknown, c.DropDebt)
	}
	if c.Refractory != 24*time.Hour {
		t.Errorf("refractory %v, want 1 day", c.Refractory)
	}
	if !c.Desynchronize || !c.EffortBalancing || !c.Introductions {
		t.Error("defenses must default on")
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero quorum", func(c *Config) { c.Quorum = 0 }},
		{"inner below quorum", func(c *Config) { c.InnerCircle = c.Quorum - 1 }},
		{"margin >= quorum", func(c *Config) { c.MaxDisagree = c.Quorum }},
		{"negative margin", func(c *Config) { c.MaxDisagree = -1 }},
		{"zero interval", func(c *Config) { c.PollInterval = 0 }},
		{"bad fractions", func(c *Config) { c.EvalFrac = 0.1 }},
		{"zero vote window", func(c *Config) { c.VoteWindow = 0 }},
		{"zero block size", func(c *Config) { c.BlockSize = 0 }},
		{"more invitees than a ballot index holds", func(c *Config) { c.OuterCircle = math.MaxInt16 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestReputationParamsConversion(t *testing.T) {
	c := DefaultConfig()
	p := c.reputationParams()
	if p.DropUnknown != c.DropUnknown || p.DropDebt != c.DropDebt {
		t.Error("drop probabilities not forwarded")
	}
	if time.Duration(p.Refractory) != c.Refractory {
		t.Error("refractory not forwarded")
	}
	if !p.IntroductionsEnabled {
		t.Error("introductions flag not forwarded")
	}
}

// TestCompressIdentity: the paper's config at the paper's interval is itself.
func TestCompressIdentity(t *testing.T) {
	paper := DefaultConfig()
	got, err := Compress(paper, paper.PollInterval)
	if err != nil {
		t.Fatal(err)
	}
	if got != paper {
		t.Errorf("Compress(DefaultConfig(), 90d) = %+v\nwant %+v", got, paper)
	}
	if s := Stretch(got); s != 1 {
		t.Errorf("stretch %v, want 1", s)
	}
}

// TestCompressSweep runs Compress over poll intervals from 1 s to 90 days in
// log steps. Each interval is refused, or yields a valid config whose six
// waits clear the floor, keep every pairwise order the paper's have, and
// leave the synchronous-rendezvous window (VoteWindow/8) longer than the
// proof timeout a voter schedules behind. Once an interval is accepted, every
// longer one is too.
func TestCompressSweep(t *testing.T) {
	paper := DefaultConfig()
	waits := func(c Config) []time.Duration {
		return []time.Duration{c.VoteWindow, c.AckTimeout, c.ProofTimeout, c.VoteSlack, c.ReceiptSlack, c.RepairTimeout}
	}
	want := waits(paper)
	accepted := false
	for iv := time.Second; iv <= paper.PollInterval; iv = iv * 5 / 4 {
		c, err := Compress(paper, iv)
		if err != nil {
			if accepted {
				t.Errorf("%v refused after a shorter interval was accepted: %v", iv, err)
			}
			continue
		}
		accepted = true
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", iv, err)
		}
		got := waits(c)
		for i := range got {
			if got[i] < waitFloor {
				t.Errorf("%v: wait %d is %v, below the %v floor", iv, i, got[i], waitFloor)
			}
			for j := range got {
				if cmp.Compare(got[i], got[j]) != cmp.Compare(want[i], want[j]) {
					t.Errorf("%v: waits %d and %d are %v and %v; the paper orders them %v and %v", iv, i, j, got[i], got[j], want[i], want[j])
				}
			}
		}
		if c.VoteWindow/8 <= c.ProofTimeout {
			t.Errorf("%v: VoteWindow/8 = %v does not exceed ProofTimeout %v", iv, c.VoteWindow/8, c.ProofTimeout)
		}
		if c.GradeDecay != iv {
			t.Errorf("%v: grade decay %v, want one poll interval", iv, c.GradeDecay)
		}
	}
	if !accepted {
		t.Fatal("no interval accepted")
	}
	for _, iv := range []time.Duration{1500 * time.Millisecond, 5 * time.Second} {
		if _, err := Compress(paper, iv); err != nil {
			t.Errorf("demo interval %v refused: %v", iv, err)
		}
	}
	for _, iv := range []time.Duration{0, -time.Second, time.Second} {
		if _, err := Compress(paper, iv); err == nil {
			t.Errorf("interval %v accepted", iv)
		}
	}
}

// TestDemoConfigQuorums: every small quorum yields a valid config whose
// landslide margin leaves a strict majority.
func TestDemoConfigQuorums(t *testing.T) {
	for q := 1; q <= 6; q++ {
		c, err := DemoConfig(1500*time.Millisecond, q, q+2, 32<<10)
		if err != nil {
			t.Errorf("quorum %d: %v", q, err)
			continue
		}
		if 2*c.MaxDisagree >= q {
			t.Errorf("quorum %d: margin %d lets a split count as a landslide", q, c.MaxDisagree)
		}
	}
}
