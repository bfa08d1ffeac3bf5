package main

import "testing"

func TestNormalize(t *testing.T) {
	a := `{"count":1,"total":3,"cached":false,"tookMs":1.5,"snapshot":7,"cursor":"abc","items":[{"page":"p","score":0.5}]}`
	b := `{"items":[{"score":0.5,"page":"p"}],"total":3,"count":1,"cached":true,"tookMs":0.01,"snapshot":9}`
	na, err := normalize([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := normalize([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Errorf("equal answers normalize differently:\n%s\n%s", na, nb)
	}
	if want := `{"count":1,"items":[{"page":"p","score":0.5}],"total":3}`; na != want {
		t.Errorf("normalize = %s, want %s", na, want)
	}
	nc, _ := normalize([]byte(`{"count":1,"total":4,"items":[{"page":"p","score":0.5}]}`))
	if nc == na {
		t.Error("a different total must survive normalization")
	}
	if _, err := normalize([]byte(`not json`)); err == nil {
		t.Error("bad JSON must be an error")
	}
	if !hasScenes([]byte(`{"items":[{"name":"x"},{"scenes":[{"kind":"net-play"}]}]}`)) ||
		hasScenes([]byte(`{"items":[{"name":"x"}]}`)) {
		t.Error("hasScenes wrong")
	}
}
