package phv

import "testing"

func TestAllocAndLookup(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id8, err := l.Alloc("flags", W8)
	if err != nil {
		t.Fatal(err)
	}
	id16, err := l.Alloc("port", W16)
	if err != nil {
		t.Fatal(err)
	}
	id32, err := l.Alloc("coflow", W32)
	if err != nil {
		t.Fatal(err)
	}
	if l.Lookup("port") != id16 || l.Lookup("flags") != id8 || l.Lookup("coflow") != id32 {
		t.Error("Lookup mismatch")
	}
	if l.Lookup("ghost") != Invalid {
		t.Error("Lookup of missing field != Invalid")
	}
	if l.NumFields() != 3 {
		t.Errorf("NumFields = %d", l.NumFields())
	}
	if l.UsedBits() != 8+16+32 {
		t.Errorf("UsedBits = %d", l.UsedBits())
	}
	if l.WidthOf(id16) != W16 || l.NameOf(id16) != "port" {
		t.Error("field metadata wrong")
	}
}

func TestAllocDuplicate(t *testing.T) {
	l := NewLayout(DefaultBudget)
	if _, err := l.Alloc("x", W8); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Alloc("x", W16); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := l.AllocArray("x"); err == nil {
		t.Error("duplicate name accepted as array")
	}
}

func TestAllocBudgetExhaustion(t *testing.T) {
	l := NewLayout(Budget{N8: 2})
	for i := 0; i < 2; i++ {
		if _, err := l.Alloc(string(rune('a'+i)), W8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Alloc("overflow", W8); err == nil {
		t.Error("exceeded budget accepted")
	}
	if _, err := l.Alloc("w16", W16); err == nil {
		t.Error("zero 16-bit budget accepted")
	}
}

func TestAllocBadWidth(t *testing.T) {
	l := NewLayout(DefaultBudget)
	if _, err := l.Alloc("x", Width(12)); err == nil {
		t.Error("bad width accepted")
	}
}

func TestArrayAllocRMTvsADCP(t *testing.T) {
	rmt := NewLayout(DefaultBudget)
	if _, err := rmt.AllocArray("weights"); err == nil {
		t.Error("RMT budget allocated an array container (limitation ② should forbid this)")
	}
	adcp := NewLayout(ADCPBudget)
	id, err := adcp.AllocArray("weights")
	if err != nil {
		t.Fatal(err)
	}
	if !adcp.IsArray(id) {
		t.Error("IsArray = false")
	}
	if adcp.ArrayWidth() != 16 {
		t.Errorf("ArrayWidth = %d", adcp.ArrayWidth())
	}
	for i := 1; i < ADCPBudget.ArraySlots; i++ {
		if _, err := adcp.AllocArray(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := adcp.AllocArray("one-too-many"); err == nil {
		t.Error("array budget overflow accepted")
	}
}

func TestFieldsOrder(t *testing.T) {
	l := NewLayout(DefaultBudget)
	l.Alloc("one", W8)
	l.Alloc("two", W16)
	got := l.Fields()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("Fields = %v", got)
	}
}

func TestBudgetBits(t *testing.T) {
	if got := DefaultBudget.Bits(); got != 4096 {
		t.Errorf("DefaultBudget.Bits = %d, want 4096 (Tofino-class)", got)
	}
}
