"""Integration tests for the repro-wm command-line interface."""

import gzip
import json
import random

import pytest

from repro.cli import EXIT_CHECKPOINT_CORRUPT, EXIT_NOT_DETECTED, main
from repro.datagen import generate_item_scan
from repro.relational import (
    drop_fraction,
    read_csv,
    schema_from_json,
    schema_to_json,
    write_csv,
)


@pytest.fixture
def workspace(tmp_path):
    """data.csv + schema.json + key.json ready for CLI use."""
    table = generate_item_scan(5000, item_count=200, seed=8)
    data = tmp_path / "data.csv"
    schema = tmp_path / "schema.json"
    key = tmp_path / "key.json"
    write_csv(table, data)
    schema.write_text(schema_to_json(table.schema), encoding="utf-8")
    assert main(["genkey", "--out", str(key), "--seed", "cli-test"]) == 0
    return tmp_path


def embed_args(ws, **overrides):
    args = {
        "--data": str(ws / "data.csv"),
        "--schema": str(ws / "schema.json"),
        "--key": str(ws / "key.json"),
        "--attribute": "Item_Nbr",
        "--watermark": "(c)T",
        "--e": "50",
        "--out": str(ws / "marked.csv"),
        "--record": str(ws / "record.json"),
    }
    args.update(overrides)
    return ["embed"] + [part for pair in args.items() for part in pair]


class TestGenkey:
    def test_writes_key_json(self, tmp_path):
        out = tmp_path / "key.json"
        assert main(["genkey", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"k1", "k2"}

    def test_seeded_keys_reproducible(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["genkey", "--out", str(first), "--seed", "s"])
        main(["genkey", "--out", str(second), "--seed", "s"])
        assert first.read_text() == second.read_text()


class TestEmbedDetect:
    def test_embed_then_detect_clean(self, workspace, capsys):
        assert main(embed_args(workspace)) == 0
        code = main(
            [
                "detect",
                "--data", str(workspace / "marked.csv"),
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record.json"),
            ]
        )
        assert code == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_detect_survives_row_loss(self, workspace):
        main(embed_args(workspace))
        schema = schema_from_json(
            (workspace / "schema.json").read_text()
        )
        marked = read_csv(workspace / "marked.csv", schema)
        suspect = drop_fraction(marked, 0.5, random.Random(4))
        write_csv(suspect, workspace / "suspect.csv")
        code = main(
            [
                "detect",
                "--data", str(workspace / "suspect.csv"),
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record.json"),
            ]
        )
        assert code == 0

    def test_unmarked_data_exits_not_detected(self, workspace):
        main(embed_args(workspace))
        code = main(
            [
                "detect",
                "--data", str(workspace / "data.csv"),  # the original!
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record.json"),
            ]
        )
        assert code == EXIT_NOT_DETECTED

    def test_embed_records_a_gzip_copy_as_its_plain_copy(self, workspace):
        data = workspace / "data.csv"
        packed = workspace / "data.csv.gz"
        packed.write_bytes(gzip.compress(data.read_bytes()))
        records = []
        for path in (data, packed):
            record = workspace / f"{path.name}.record.json"
            assert main(embed_args(
                workspace, **{"--data": str(path), "--record": str(record)}
            )) == 0
            records.append(record.read_text())
        # the record's metadata names the relation after its file
        # without ".gz"
        assert records[1] == records[0]
        assert json.loads(records[0])["metadata"]["source"] == "data"

    def test_embed_with_quality_budget(self, workspace, capsys):
        assert main(
            embed_args(workspace, **{"--max-alteration": "0.001"})
        ) == 0
        out = capsys.readouterr().out
        assert "vetoed" in out

    def test_bits_watermark_format(self, workspace):
        assert main(
            embed_args(workspace, **{"--watermark": "bits:1011001110"})
        ) == 0
        record = json.loads((workspace / "record.json").read_text())
        assert record["watermark"] == "1011001110"

    def test_hex_watermark_format(self, workspace):
        assert main(embed_args(workspace, **{"--watermark": "hex:AC"})) == 0
        record = json.loads((workspace / "record.json").read_text())
        assert record["watermark"] == "10101100"


class TestInspect:
    def test_inspect_prints_profile(self, workspace, capsys):
        code = main(
            [
                "inspect",
                "--data", str(workspace / "data.csv"),
                "--schema", str(workspace / "schema.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Item_Nbr" in out
        assert "5000" in out

    def test_inspect_single_attribute(self, workspace, capsys):
        code = main(
            [
                "inspect",
                "--data", str(workspace / "data.csv"),
                "--schema", str(workspace / "schema.json"),
                "--attribute", "Item_Nbr",
            ]
        )
        assert code == 0
        assert "distinct values" in capsys.readouterr().out

    def test_inspect_reads_a_gzip_copy(self, workspace, capsys):
        args = ["inspect", "--schema", str(workspace / "schema.json")]
        data = workspace / "data.csv"
        packed = workspace / "data.csv.gz"
        packed.write_bytes(gzip.compress(data.read_bytes()))
        assert main(args + ["--data", str(data)]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(args + ["--data", str(packed)]) == 0
        unpacked = capsys.readouterr().out.splitlines()
        # "relation : data" too: the relation is named after its file
        # without ".gz"
        assert unpacked == plain


class TestSchemaTemplate:
    def test_template_is_valid_json(self, workspace, capsys):
        code = main(
            ["schema-template", "--data", str(workspace / "data.csv")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["primary_key"] == "Visit_Nbr"
        assert [a["name"] for a in payload["attributes"]] == [
            "Visit_Nbr", "Item_Nbr",
        ]

    def test_a_quoted_header_name_keeps_its_comma(self, tmp_path, capsys):
        data = tmp_path / "quoted.csv"
        data.write_text('id,"a,b",c\r\n1,x,y\r\n', encoding="utf-8")
        assert main(["schema-template", "--data", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["primary_key"] == "id"
        assert [a["name"] for a in payload["attributes"]] == [
            "id", "a,b", "c",
        ]

    def test_a_gzip_copy_prints_the_plain_template(self, workspace, capsys):
        data = workspace / "data.csv"
        packed = workspace / "data.csv.gz"
        packed.write_bytes(gzip.compress(data.read_bytes()))
        assert main(["schema-template", "--data", str(data)]) == 0
        plain = capsys.readouterr().out
        assert main(["schema-template", "--data", str(packed)]) == 0
        assert capsys.readouterr().out == plain


class TestRemapRecoveryFlag:
    @pytest.fixture
    def dense_workspace(self, tmp_path):
        """Remap recovery needs many rows per value (§4.5's "over large
        data sets"): 8000 rows over 25 items."""
        table = generate_item_scan(8000, item_count=25, seed=9)
        write_csv(table, tmp_path / "data.csv")
        (tmp_path / "schema.json").write_text(
            schema_to_json(table.schema), encoding="utf-8"
        )
        assert main(
            ["genkey", "--out", str(tmp_path / "key.json"), "--seed", "d"]
        ) == 0
        return tmp_path

    def test_detect_with_recovery_after_remap(self, dense_workspace):
        workspace = dense_workspace
        main(embed_args(workspace))
        schema = schema_from_json((workspace / "schema.json").read_text())
        marked = read_csv(workspace / "marked.csv", schema)
        from repro.attacks import PermutationRemapAttack

        attacked = PermutationRemapAttack("Item_Nbr").apply(
            marked, random.Random(6)
        )
        write_csv(attacked, workspace / "remapped.csv")
        base = [
            "detect",
            "--data", str(workspace / "remapped.csv"),
            "--schema", str(workspace / "schema.json"),
            "--key", str(workspace / "key.json"),
            "--record", str(workspace / "record.json"),
        ]
        assert main(base) == EXIT_NOT_DETECTED
        assert main(base + ["--remap-recovery"]) == 0


class TestSweepCommand:
    @pytest.fixture
    def small_workspace(self, tmp_path):
        table = generate_item_scan(600, item_count=60, seed=19)
        data = tmp_path / "data.csv"
        schema = tmp_path / "schema.json"
        write_csv(table, data)
        schema.write_text(schema_to_json(table.schema), encoding="utf-8")
        return tmp_path

    def _sweep(self, ws, out, **overrides):
        args = {
            "--data": str(ws / "data.csv"),
            "--schema": str(ws / "schema.json"),
            "--attribute": "Item_Nbr",
            "--e": "25",
            "--attack": "alteration",
            "--xs": "0.3,0.6",
            "--passes": "2",
            "--json": str(out),
        }
        args.update(overrides)
        return ["sweep"] + [part for pair in args.items() for part in pair]

    def test_sweep_writes_series_json(self, small_workspace, capsys):
        out = small_workspace / "series.json"
        assert main(self._sweep(small_workspace, out)) == 0
        payload = json.loads(out.read_text())
        assert payload["attack"] == "alteration"
        assert [point["x"] for point in payload["points"]] == [0.3, 0.6]
        assert "mark alteration" in capsys.readouterr().out

    def test_backend_and_mode_flags_are_bit_identical(self, small_workspace):
        """--backend/--mode select execution only — results never change."""
        outputs = []
        for backend, mode in (
            ("scalar", "serial"),
            ("vector", "hoisted"),
            ("vector", "auto"),
        ):
            out = small_workspace / f"{backend}-{mode}.json"
            code = main(
                self._sweep(
                    small_workspace, out,
                    **{"--backend": backend, "--mode": mode},
                )
            )
            assert code == 0
            outputs.append(json.loads(out.read_text())["points"])
        assert all(points == outputs[0] for points in outputs[1:])

    def test_loss_attack_sweep(self, small_workspace):
        out = small_workspace / "loss.json"
        assert (
            main(
                self._sweep(
                    small_workspace, out,
                    **{"--attack": "loss", "--xs": "0.5"},
                )
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 1

    def test_rejects_unknown_backend(self, small_workspace):
        out = small_workspace / "bad.json"
        # a typo, and the two retired backend names
        for backend in ("vectr", "engine", "auto"):
            with pytest.raises(SystemExit):
                main(
                    self._sweep(
                        small_workspace, out, **{"--backend": backend}
                    )
                )
            assert not out.exists()


class TestFigureCommand:
    def test_figure7_json(self, tmp_path, capsys):
        out = tmp_path / "fig7.json"
        code = main(
            [
                "figure", "--figure", "7", "--tuples", "500",
                "--items", "50", "--passes", "2",
                "--backend", "vector", "--mode", "auto",
                "--json", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["figure"] == 7
        assert len(payload["points"]) == 8
        assert "figure 7" in capsys.readouterr().out

    def test_figure6_surface_modes_match(self, tmp_path):
        payloads = []
        for mode in ("serial", "hoisted"):
            out = tmp_path / f"fig6-{mode}.json"
            code = main(
                [
                    "figure", "--figure", "6", "--tuples", "400",
                    "--items", "40", "--passes", "2",
                    "--mode", mode, "--json", str(out),
                ]
            )
            assert code == 0
            payloads.append(json.loads(out.read_text())["surface"])
        assert payloads[0] == payloads[1]


class TestStreamingFileMode:
    """--input/--output/--chunk-size: the out-of-core CLI pipelines."""

    def stream_embed_args(self, ws, **overrides):
        args = {
            "--input": str(ws / "data.csv"),
            "--output": str(ws / "marked.csv.gz"),
            "--chunk-size": "1024",
            "--schema": str(ws / "schema.json"),
            "--key": str(ws / "key.json"),
            "--attribute": "Item_Nbr",
            "--watermark": "(c)T",
            "--e": "50",
            "--record": str(ws / "record_stream.json"),
        }
        args.update(overrides)
        return ["mark"] + [part for pair in args.items() for part in pair]

    def test_streamed_mark_then_streamed_detect(self, workspace, capsys):
        assert main(self.stream_embed_args(workspace)) == 0
        code = main(
            [
                "detect",
                "--input", str(workspace / "marked.csv.gz"),
                "--chunk-size", "1024",
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record_stream.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out and "chunks" in out

    def test_streamed_output_matches_in_memory_output(self, workspace):
        import gzip

        assert main(embed_args(workspace)) == 0
        assert main(self.stream_embed_args(workspace)) == 0
        in_memory = (workspace / "marked.csv").read_bytes()
        streamed = gzip.decompress(
            (workspace / "marked.csv.gz").read_bytes()
        )
        assert streamed == in_memory
        # and the escrowed specs agree
        record_memory = json.loads((workspace / "record.json").read_text())
        record_stream = json.loads(
            (workspace / "record_stream.json").read_text()
        )
        assert record_stream["spec"] == record_memory["spec"]

    def test_streamed_detect_not_detected_on_unmarked(self, workspace):
        assert main(self.stream_embed_args(workspace)) == 0
        code = main(
            [
                "detect",
                "--input", str(workspace / "data.csv"),  # the original!
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record_stream.json"),
            ]
        )
        assert code == EXIT_NOT_DETECTED

    def test_checkpoint_file_written(self, workspace):
        checkpoint = workspace / "run.ckpt"
        assert main(
            self.stream_embed_args(
                workspace, **{"--checkpoint": str(checkpoint)}
            )
        ) == 0
        payload = json.loads(checkpoint.read_text())
        assert payload["rows_done"] == 5000

    def test_data_and_input_are_mutually_exclusive(self, workspace):
        import pytest

        with pytest.raises(SystemExit):
            main(
                self.stream_embed_args(
                    workspace, **{"--data": str(workspace / "data.csv")}
                )
            )
        with pytest.raises(SystemExit):
            main([
                "detect",
                "--schema", str(workspace / "schema.json"),
                "--key", str(workspace / "key.json"),
                "--record", str(workspace / "record.json"),
            ])

    def test_streaming_rejects_in_memory_only_flags(self, workspace):
        import pytest

        with pytest.raises(SystemExit, match="frequency"):
            main(
                self.stream_embed_args(workspace)
                + ["--frequency-channel"]
            )

    def test_resume_without_checkpoint_is_a_usage_error(self, workspace):
        import pytest

        with pytest.raises(SystemExit, match="checkpoint"):
            main(self.stream_embed_args(workspace) + ["--resume"])

    def test_resume_with_no_usable_checkpoint_exits_4(
        self, workspace, capsys
    ):
        # A run killed before its first checkpoint leaves none; another
        # run's checkpoint is no better.  Either way: one error line, and
        # the checkpoint exit code, not a traceback.
        checkpoint = workspace / "run.ckpt"
        resume = self.stream_embed_args(
            workspace, **{"--checkpoint": str(checkpoint)}
        ) + ["--resume"]
        assert main(resume) == EXIT_CHECKPOINT_CORRUPT
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "no checkpoint to resume from" in err
        assert "re-run without --resume" in err

        assert main(self.stream_embed_args(
            workspace, **{"--checkpoint": str(checkpoint)}
        )) == 0
        assert main(self.stream_embed_args(
            workspace, **{"--checkpoint": str(checkpoint),
                          "--watermark": "(c)U"}
        ) + ["--resume"]) == EXIT_CHECKPOINT_CORRUPT
        err = capsys.readouterr().err
        assert "different (key, spec, watermark) run" in err
        assert "re-run without --resume" in err
