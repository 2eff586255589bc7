"""Command-line behavior: artifacts, exit codes, stream discipline."""

import copy
import dataclasses
from pathlib import Path

import pytest
import yaml

from tigsim import harness
from tigsim import pattern as pat
from tigsim.cli import main
from tigsim.descriptors import encode_image
from tigsim.injector import Injector

SAMPLES = Path(__file__).parent.parent / "samples"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_hex_to_stdout(capsys):
    code, out, err = run_cli(capsys, "compile", str(SAMPLES / "basic.tig"),
                             "--format", "hex")
    assert code == 0
    assert out.splitlines()[:2] == ["00006004", "80000000"]
    assert "3 descriptors" in err
    assert "descriptors" not in out  # diagnostics stay on stderr


def test_compile_bin_matches_hex(tmp_path, capsys):
    bin_path = tmp_path / "prog.bin"
    code, _, _ = run_cli(capsys, "compile", str(SAMPLES / "basic.tig"),
                         "--format", "bin", "-o", str(bin_path))
    assert code == 0
    blob = bin_path.read_bytes()
    descs = pat.compile_file(SAMPLES / "basic.tig")
    assert blob == encode_image(descs)


def test_compile_malformed_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.tig"
    bad.write_text("read 0x10\nread\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compile", str(bad))
    assert code == 2
    assert "line 2" in err
    assert out == ""


def test_compile_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "compile", "no/such/file.tig")
    assert code == 2 and "cannot read" in err


def test_compile_apb_replays_to_same_buffer_state(tmp_path, capsys):
    out_path = tmp_path / "prog.apb"
    code, _, _ = run_cli(capsys, "compile", str(SAMPLES / "basic.tig"),
                         "--format", "apb", "-o", str(out_path))
    assert code == 0
    replayed = Injector("r")
    header, *lines = out_path.read_text(encoding="utf-8").splitlines()
    assert header == "offset,value"
    for line in lines:
        off, val = line.split(",")
        replayed.apb_write(int(off, 0), int(val, 0))
    direct = Injector("d")
    for off, val in pat.emit_apb_sequence(pat.compile_file(SAMPLES / "basic.tig")):
        direct.apb_write(off, val)
    assert replayed.buffer == direct.buffer
    assert replayed.apb_read(0x000) == direct.apb_read(0x000)


def test_run_pair_populates_slowdown(tmp_path, capsys):
    out_path = tmp_path / "metrics.csv"
    code, _, _ = run_cli(capsys, "run", str(SAMPLES / "dual_bus.yaml"),
                         "--pair", "--max-cycles", "40000", "-o", str(out_path))
    # the sample's AHB victim needs more than 40k cycles: expect limit
    assert code == 3
    text = out_path.read_text(encoding="utf-8")
    assert "baseline" in text

def test_run_pair_small_config(tmp_path, capsys):
    cfg = tmp_path / "small.yaml"
    cfg.write_text(
        "buses:\n"
        "  - {name: a, kind: ahb, L: 2, policy: round_robin}\n"
        "masters:\n"
        "  - name: core\n"
        "    bus: a\n"
        "    role: victim\n"
        "    victim: {period: 4, count: 10, kind: read, address: 0x80000000}\n"
        "  - name: inj\n"
        "    bus: a\n"
        "    role: injector\n"
        "    injector:\n"
        "      descriptors:\n"
        "        - {kind: write_fix, address: 0x40000000, size_bytes: 4}\n"
        "      ctrl: [loop, pipe]\n",
        encoding="utf-8")
    out_path = tmp_path / "metrics.csv"
    code, _, _ = run_cli(capsys, "run", str(cfg), "--pair", "-o", str(out_path))
    assert code == 0
    rows = out_path.read_text(encoding="utf-8").splitlines()
    core_contended = [r for r in rows if r.startswith("contended,core")][0]
    slowdown = float(core_contended.split(",")[-1])
    assert slowdown > 1.0
    baseline_core = [r for r in rows if r.startswith("baseline,core")][0]
    assert baseline_core.endswith(",")  # no slowdown on the baseline row


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "buses: [{name: a, kind: ahb, L: 1}]\n"
        "masters:\n"
        "  - name: v\n"
        "    bus: missing\n"
        "    role: victim\n"
        "    victim: {period: 1, count: 1, kind: read, address: 0}\n",
        encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 2
    assert "masters[0].bus" in err


def test_run_empty_topology_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("buses: [{name: a, kind: ahb, L: 1}]\nmasters: []\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(cfg))
    assert code == 2
    assert "masters" in err


def test_run_cycle_limit_exits_3_with_partial_csv(tmp_path, capsys):
    out_path = tmp_path / "metrics.csv"
    code, _, err = run_cli(capsys, "run", str(SAMPLES / "dual_bus.yaml"),
                           "--max-cycles", "10", "-o", str(out_path))
    assert code == 3
    assert "cycle limit" in err
    assert ":partial," in out_path.read_text(encoding="utf-8")


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "x.yaml", "--bogus"])
    assert excinfo.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("option,value,bound", [
    ("--max-cycles", "-3", ">= 1"),
    ("--seed", "-1", ">= 0"),
], ids=["max-cycles", "seed"])
def test_override_below_loader_bound_exits_1(capsys, option, value, bound):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", str(SAMPLES / "two_masters_ahb.yaml"), option, value])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert f"argument {option}: must be {bound}, got {value}" in captured.err
    assert captured.out == ""


def test_run_malformed_yaml_exits_2_naming_file_once(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("name: x\nbuses: [\n  {name: a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 2
    assert err.count(str(cfg)) == 1
    assert "invalid YAML" in err and "line 3" in err
    assert out == ""


def test_trace_contains_grant_rows_at_0_and_3(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "trace", str(SAMPLES / "two_masters_ahb.yaml"),
                           "--trace", str(trace_path))
    assert code == 0
    rows = trace_path.read_text(encoding="utf-8").splitlines()
    grants = [r for r in rows if ",GRANT," in r]
    assert grants == ["0,ahb0,GRANT,0,0", "3,ahb0,GRANT,1,1"]
    assert out.startswith("scenario,")  # metrics still go to stdout


def test_trace_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "trace", str(SAMPLES / "two_masters_ahb.yaml"), "--trace", str(a))
    run_cli(capsys, "trace", str(SAMPLES / "two_masters_ahb.yaml"), "--trace", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_leaves_the_metrics_unchanged(capsys):
    """The seed is part of the topology digest; nothing in a run reads it."""
    cfg = SAMPLES / "two_masters_ahb.yaml"
    code1, out1, _ = run_cli(capsys, "run", str(cfg), "--seed", "5")
    code2, out2, _ = run_cli(capsys, "run", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_overrides_equal_the_edited_file(tmp_path, capsys, pair):
    """--max-cycles and --seed replace the file's values: the run is the
    run of a copy with those values written in."""
    text = (SAMPLES / "dual_bus.yaml").read_text(encoding="utf-8")
    edited = text.replace("\nseed: 7\n", "\nseed: 5\n").replace(
        "\nmax_cycles: 2000000\n", "\nmax_cycles: 137\n")
    assert edited.count("137") == 1 and edited.count("seed: 5") == 1
    (tmp_path / "stress.tig").write_bytes((SAMPLES / "stress.tig").read_bytes())
    copy = tmp_path / "dual_bus.yaml"
    copy.write_text(edited, encoding="utf-8")
    flags = ["--pair"] if pair else []
    code, out, _ = run_cli(capsys, "run", str(SAMPLES / "dual_bus.yaml"),
                           "--max-cycles", "137", "--seed", "5", *flags)
    assert (code, out) == run_cli(capsys, "run", str(copy), *flags)[:2]
    assert code == 3 and ":partial" in out


def _injector_config(tmp_path, injector: str):
    cfg = tmp_path / "inj.yaml"
    cfg.write_text(
        "buses: [{name: a, kind: ahb, L: 1}]\n"
        "masters:\n"
        "  - name: v\n"
        "    bus: a\n"
        "    role: victim\n"
        "    victim: {period: 4, count: 2, kind: read, address: 0}\n"
        "  - name: inj\n"
        "    bus: a\n"
        "    role: injector\n"
        f"    injector: {injector}\n",
        encoding="utf-8")
    return cfg


@pytest.mark.parametrize("injector,path", [
    ('{descriptors: [{kind: write, address: 0}], enabled: "no"}', "injector.enabled"),
    ("{pattern: 5}", "injector.pattern"),
    ("{descriptors: [{kind: write, address: 0}], ctrl: [[1]]}", "injector.ctrl"),
    ("{pattern: bad.tig}", "injector.pattern"),
    ("{descriptors: [{kind: write, address: 0, size: 64}]}", "injector.descriptors[0].size"),
    ("{descriptors: [{kind: delay, delay_cycles: 5, address: 4}]}",
     "injector.descriptors[0].address"),
    ("{descriptors: [{kind: read, address: 0, delay_cycles: 3}]}",
     "injector.descriptors[0].delay_cycles"),
    ('{descriptors: [{kind: read, address: 0, irq_on_done: "false"}]}',
     "injector.descriptors[0].irq_on_done"),
    ("{descriptors: [{kind: read, address: 0, size_bytes: 9000}]}",
     "injector.descriptors[0].size_bytes"),
], ids=["enabled-string", "pattern-int", "ctrl-nested-list", "pattern-not-utf8",
        "unknown-key", "address-on-delay", "delay-on-read", "irq-string",
        "size-range"])
def test_run_bad_injector_exits_2_with_field_path(tmp_path, capsys, injector, path):
    (tmp_path / "bad.tig").write_bytes(b"read 0x10\nread 0x\xff\n")
    code, out, err = run_cli(capsys, "run", str(_injector_config(tmp_path, injector)))
    assert code == 2
    assert f"masters[1].{path}:" in err
    assert out == ""


def test_run_non_utf8_topology_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(b"buses: [{name: a\xff, kind: ahb, L: 1}]\n")
    code, _, err = run_cli(capsys, "run", str(cfg))
    assert code == 2 and "bad.yaml" in err


def test_compile_non_utf8_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.tig"
    bad.write_bytes(b"read 0x10\nread 0x\xff\n")
    code, out, err = run_cli(capsys, "compile", str(bad))
    assert code == 2
    assert "line 2" in err
    assert out == ""


@pytest.mark.parametrize("fmt", ["hex", "bin", "apb"])
def test_compile_oversized_program_exits_2_in_every_format(tmp_path, capsys, fmt):
    src = tmp_path / "big.tig"
    src.write_text("read 0x10\n" * 129, encoding="utf-8")
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, "compile", str(src), "--format", fmt,
                             "-o", str(out_path))
    assert code == 2
    assert err == f"tigsim: {src}: 129 descriptors need 258 words; buffer holds 256\n"
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("fmt", ["hex", "bin", "apb"])
def test_compile_full_buffer_program(tmp_path, capsys, fmt):
    src = tmp_path / "full.tig"
    src.write_text("read 0x10\n" * 128, encoding="utf-8")
    out_path = tmp_path / "out"
    code, _, err = run_cli(capsys, "compile", str(src), "--format", fmt,
                           "-o", str(out_path))
    assert code == 0 and "compiled 128 descriptors" in err
    descs = pat.compile_file(src)
    expected = {"hex": pat.render_hex(descs).encode(),
                "bin": encode_image(descs),
                "apb": pat.render_apb_csv(pat.emit_apb_sequence(descs)).encode()}
    assert out_path.read_bytes() == expected[fmt]



_VICTIM = {"period": 4, "count": 2, "kind": "read", "address": 0}
_INJECTOR = {"descriptors": [{"kind": "write", "address": 0}]}


@pytest.mark.parametrize("edit,path", [
    (lambda raw: raw.update(bogus=1), "bogus"),
    (lambda raw: raw["masters"][0].update(typo=3), "masters[0].typo"),
    (lambda raw: raw["masters"][0].update(injector=_INJECTOR), "masters[0].injector"),
    (lambda raw: raw["masters"][1].update(victim=_VICTIM), "masters[1].victim"),
    (lambda raw: raw["buses"][0].update(L=0), "buses[0].L"),
    (lambda raw: raw["buses"][0].update(L="x"), "buses[0].L"),
    (lambda raw: raw["buses"][0].update(L=True), "buses[0].L"),
    (lambda raw: raw["buses"][0].update(O=2), "buses[0].O"),
    (lambda raw: raw["buses"].append(dict(raw["buses"][0])), "buses"),
    (lambda raw: raw["masters"][0].update(
        victim={k: v for k, v in _VICTIM.items() if k != "count"}),
     "masters[0].victim.count"),
    (lambda raw: raw["masters"][0]["victim"].update(address=2**33),
     "masters[0].victim.address"),
    (lambda raw: raw["masters"][0].update(victim=[_VICTIM]), "masters[0].victim"),
    (lambda raw: raw["masters"][1]["injector"].update(descriptors=[]),
     "masters[1].injector.descriptors"),
    (lambda raw: raw["masters"][1]["injector"].update(descriptors=[5]),
     "masters[1].injector.descriptors[0]"),
    (lambda raw: raw["masters"][1]["injector"].update(pattern="p.tig"),
     "masters[1].injector"),
    (lambda raw: raw["masters"][1].update(injector={"pattern": "missing.tig"}),
     "masters[1].injector.pattern"),
    (lambda raw: raw["masters"][1].update(injector={"descriptors": [{"address": 0}]}),
     "masters[1].injector.descriptors[0].kind"),
    (lambda raw: raw["masters"][1]["injector"].update(ctrl="loop"),
     "masters[1].injector.ctrl"),
    (lambda raw: [raw], "<config>"),
], ids=["top-level-unknown", "master-unknown", "injector-on-victim",
        "victim-on-injector", "L-zero", "L-string", "L-bool", "O-on-ahb",
        "duplicate-bus", "victim-count-missing", "victim-address-range",
        "victim-list", "descriptors-empty", "descriptor-not-mapping",
        "pattern-and-descriptors", "pattern-missing", "descriptor-kind-missing",
        "ctrl-string", "top-level-list"])
def test_run_unknown_or_other_role_key_exits_2(tmp_path, capsys, edit, path):
    raw = copy.deepcopy(
        {"buses": [{"name": "a", "kind": "ahb", "L": 1}],
         "masters": [{"name": "v", "bus": "a", "role": "victim", "victim": _VICTIM},
                     {"name": "inj", "bus": "a", "role": "injector",
                      "injector": _INJECTOR}]})
    raw = edit(raw) or raw
    cfg = tmp_path / "keys.yaml"
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 2
    assert f": {path}:" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["-o", "--trace", "--trace-injector", "compile -o"])
@pytest.mark.parametrize("target,reason", [
    ("missing/out.csv", "No such file or directory"),
    (".", "Is a directory"),
], ids=["no-parent", "directory"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, flag, target, reason):
    path = tmp_path / target
    if flag == "compile -o":
        argv = ["compile", str(SAMPLES / "basic.tig"), "-o", str(path)]
    else:
        argv = ["run", str(SAMPLES / "two_masters_ahb.yaml"), flag, str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"tigsim: cannot write {path}: {reason}\n"


def test_run_trace_injector_writes_the_injector_trace(tmp_path, capsys):
    from tigsim.harness import build, load_topology
    inj_path = tmp_path / "injector.csv"
    code, out, _ = run_cli(capsys, "run", str(SAMPLES / "dual_bus.yaml"),
                           "--trace-injector", str(inj_path))
    assert code == 0
    assert out.startswith("scenario,")
    sim = build(load_topology(SAMPLES / "dual_bus.yaml"), trace_enabled=True)
    sim.run()
    assert inj_path.read_text(encoding="utf-8") == sim.trace.injector_csv()
    assert list(tmp_path.iterdir()) == [inj_path]  # no bus trace was asked for


def test_trace_injector_with_pair_exits_1(tmp_path, capsys):
    inj_path = tmp_path / "injector.csv"
    code, out, err = run_cli(capsys, "run", str(SAMPLES / "two_masters_ahb.yaml"),
                             "--pair", "--trace-injector", str(inj_path))
    assert code == 1
    assert "--trace-injector cannot be combined with --pair" in err
    assert out == "" and not inj_path.exists()


def test_trace_at_the_cycle_limit_writes_both_traces(tmp_path, capsys):
    bus_path, injector_path = tmp_path / "t.csv", tmp_path / "i.csv"
    code, out, err = run_cli(capsys, "trace", str(SAMPLES / "dual_bus.yaml"),
                             "--max-cycles", "137", "--trace", str(bus_path),
                             "--trace-injector", str(injector_path))
    assert code == 3
    assert ":partial" in out and "cycle limit exceeded" in err
    topo = harness.load_topology(SAMPLES / "dual_bus.yaml")
    sim = harness.build(dataclasses.replace(topo, max_cycles=137), trace_enabled=True)
    with pytest.raises(harness.CycleLimitExceeded):
        sim.run()
    assert bus_path.read_text(encoding="utf-8") == sim.trace.bus_csv()
    assert injector_path.read_text(encoding="utf-8") == sim.trace.injector_csv()
