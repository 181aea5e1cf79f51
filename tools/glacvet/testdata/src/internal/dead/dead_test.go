package dead

import "testing"

func TestPeek(t *testing.T) {
	if Peek() == nil {
		t.Fatal("nil counter")
	}
	new(Ticker).Stop()
	if (Gauge{}).Tested != 0 || (meter{}).peak != 0 {
		t.Fatal("gauge or meter not zero")
	}
}
