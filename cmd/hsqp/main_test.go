package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"hsqp/internal/bench"
)

// fakeRegistry records the order its experiments run in.
func fakeRegistry(ran *[]string) bench.Registry {
	var reg bench.Registry
	for _, id := range []string{"b", "a", "c"} {
		reg = append(reg, bench.Experiment{ID: id, Title: id,
			Run: func(w io.Writer, o bench.Options) (map[string]float64, error) {
				*ran = append(*ran, id)
				return nil, nil
			}})
	}
	return reg
}

func TestExperimentAllRunsInRegistryOrder(t *testing.T) {
	var ran []string
	if err := runExperiments(io.Discard, fakeRegistry(&ran), "all", bench.Options{}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "a", "c"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want registry order %v", ran, want)
	}
}

func TestExperimentUnknownIDListsValid(t *testing.T) {
	var ran []string
	err := runExperiments(io.Discard, fakeRegistry(&ran), "nope", bench.Options{})
	if err == nil || len(ran) != 0 {
		t.Fatalf("unknown id: err %v, ran %v", err, ran)
	}
	for _, id := range []string{"a", "b", "c"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
	if err := runExperiments(io.Discard, fakeRegistry(&ran), "a", bench.Options{}); err != nil || !reflect.DeepEqual(ran, []string{"a"}) {
		t.Fatalf("single id: err %v, ran %v", err, ran)
	}
}
