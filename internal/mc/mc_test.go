package mc_test

import (
	"testing"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

func TestTokenSafetyOnly(t *testing.T) {
	res := mc.CheckOpt(models.NewTokenModel(models.DefaultTokenConfig(models.SafetyOnly)), mc.Options{})
	t.Log(res)
	if !res.OK() {
		t.Fatalf("safety-only model failed: %v", res)
	}
}

func TestTokenDistributed(t *testing.T) {
	cfg := models.DefaultTokenConfig(models.DistributedAct)
	if testing.Short() {
		cfg.T = 3
	}
	res := mc.CheckOpt(models.NewTokenModel(cfg), mc.Options{})
	t.Log(res)
	if !res.OK() {
		t.Fatalf("distributed model failed: %v", res)
	}
}

func TestTokenArbiter(t *testing.T) {
	cfg := models.DefaultTokenConfig(models.ArbiterAct)
	if testing.Short() {
		cfg.T = 3
	}
	res := mc.CheckOpt(models.NewTokenModel(cfg), mc.Options{})
	t.Log(res)
	if !res.OK() {
		t.Fatalf("arbiter model failed: %v", res)
	}
}

func TestDirectoryFlat(t *testing.T) {
	res := mc.CheckOpt(models.DefaultDirModel(), mc.Options{})
	t.Log(res)
	if !res.OK() {
		t.Fatalf("flat directory model failed: %v", res)
	}
}
