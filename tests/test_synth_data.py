"""Dataset substrate checks: schemas, determinism, scaling, FK integrity."""
import pytest

from repro import synth_data as sd


class TestFlights:
    def test_schema(self, flight_df):
        assert set(flight_df.columns) == {
            "airport", "day", "week", "month",
            "arr_delay", "dep_delay", "weather_delay", "carrier_delay", "duration",
        }

    def test_airport_cardinality(self, flight_df):
        assert flight_df.select("airport").distinct().count() == 8

    def test_week_is_fd_of_day(self, flight_df):
        bad = flight_df.selectExpr("day", "week").distinct().groupBy("day").count()
        assert bad.filter("count > 1").count() == 0

    def test_deterministic(self, spark):
        a = sd.flights(spark, sf=0.0005, n_airports=4).toPandas()
        b = sd.flights(spark, sf=0.0005, n_airports=4).toPandas()
        assert a.equals(b)

    def test_seed_changes_data(self, spark):
        a = sd.flights(spark, sf=0.0005, seed=11).toPandas()
        b = sd.flights(spark, sf=0.0005, seed=12).toPandas()
        assert not a.equals(b)

    def test_sf_scales_rows(self, spark):
        small = sd.flights(spark, sf=0.0005).count()
        large = sd.flights(spark, sf=0.001).count()
        assert large == 2 * small

    def test_airports_have_distinct_trends(self, spark):
        df = sd.flights(spark, sf=0.002, n_airports=4, n_days=50)
        pdf = df.groupBy("airport").avg("arr_delay").toPandas()
        assert pdf["avg(arr_delay)"].nunique() == 4


class TestWebsales:
    def test_schema(self, websales_df):
        assert set(websales_df.columns) == {
            "ws_web_page_sk", "ws_item_sk", "ws_sold_date_sk",
            "ws_warehouse_sk", "ws_quantity", "ws_net_profit",
        }

    def test_fk_integrity_pages(self, websales_df, webpages_df):
        orphans = websales_df.join(
            webpages_df,
            websales_df.ws_web_page_sk == webpages_df.wp_web_page_sk,
            "left_anti",
        )
        assert orphans.count() == 0

    def test_fk_integrity_warehouses(self, websales_df, warehouses_df):
        orphans = websales_df.join(
            warehouses_df,
            websales_df.ws_warehouse_sk == warehouses_df.w_warehouse_sk,
            "left_anti",
        )
        assert orphans.count() == 0

    def test_webpages_pk_unique(self, webpages_df):
        assert webpages_df.count() == webpages_df.select("wp_web_page_sk").distinct().count()

    def test_deterministic(self, spark):
        a = sd.websales(spark, sf=0.0005).toPandas()
        b = sd.websales(spark, sf=0.0005).toPandas()
        assert a.equals(b)


class TestSales:
    def test_schema(self, sales_df):
        assert set(sales_df.columns) == {
            "region", "city", "product", "country", "week", "month",
            "revenue", "profit", "quantity",
        }

    def test_regions_partition_cities(self, sales_df):
        pdf = sales_df.select("region", "city").distinct().toPandas()
        asia = set(pdf[pdf.region == "Asia"].city)
        europe = set(pdf[pdf.region == "Europe"].city)
        assert asia and europe and not (asia & europe)

    def test_month_is_fd_of_week(self, sales_df):
        bad = sales_df.select("week", "month").distinct().groupBy("week").count()
        assert bad.filter("count > 1").count() == 0

